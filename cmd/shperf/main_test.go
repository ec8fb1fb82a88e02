package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparsehamming/internal/perf"
)

// TestCheckExitStatus pins -check's contract: an ns/op regression
// only warns (exit 0), a metric below its floor fails (exit 1, an
// ::error annotation), and the -fresh window skips stale entries.
func TestCheckExitStatus(t *testing.T) {
	now := time.Now().UTC()
	old := now.Add(-48 * time.Hour).Format(time.RFC3339)
	recent := now.Format(time.RFC3339)
	write := func(speedup float64, when string) string {
		path := filepath.Join(t.TempDir(), "bench.json")
		err := perf.Append(path,
			perf.Entry{Bench: "Step", When: old, NsPerOp: 100},
			perf.Entry{Bench: "Step", When: recent, NsPerOp: 200},
			perf.Entry{Bench: "EngineSoASpeedup", When: when, NsPerOp: 1,
				Metrics: map[string]float64{"soa_speedup_x": speedup}})
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	corrupt := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		want   int
		output string
	}{
		{"regression warns", []string{"-check", "-file", write(2, recent)}, 0, "::warning ::bench Step regressed"},
		{"floor fails", []string{"-check", "-file", write(1.2, recent)}, 1, "::error ::bench EngineSoASpeedup metric soa_speedup_x = 1.2 below floor 1.5"},
		{"stale floor skipped", []string{"-check", "-fresh", "1h", "-file", write(1.2, old)}, 0, "no metric-floor violations"},
		{"corrupt file", []string{"-check", "-file", corrupt}, 1, ""},
		{"no -check", []string{}, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("exit %d, want %d\nstdout: %s\nstderr: %s", got, tc.want, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.output) {
				t.Errorf("stdout %q lacks %q", &stdout, tc.output)
			}
		})
	}
}
