package cli

import (
	"strings"
	"testing"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/noc"
)

// TestDumpMetricsStable pins the shrun/shsweep -metrics contract: the
// dump covers the simulator, runner, and cache series, and two dumps
// with no work between them are byte-identical (deterministic series
// ordering, scrape-time sampling).
func TestDumpMetricsStable(t *testing.T) {
	runner := noc.NewRunner(1, exp.NewCache())
	jobs := []exp.Job{{Mode: exp.ModeCost, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh"}}
	if _, _, err := runner.Run(jobs); err != nil {
		t.Fatal(err)
	}

	var a, b strings.Builder
	if err := DumpMetrics(&a, runner); err != nil {
		t.Fatal(err)
	}
	if err := DumpMetrics(&b, runner); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("back-to-back dumps differ:\n%s\n----\n%s", a.String(), b.String())
	}
	for _, want := range []string{
		"sh_sim_runs_total", "sh_sim_verdicts_total",
		"sh_sim_trace_parses_total", "sh_sim_trace_memo_hits_total",
		"sh_runner_batches_total", "sh_runner_workers",
		"sh_cache_entries",
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("dump missing %s", want)
		}
	}
	if !strings.Contains(a.String(), `sh_runner_jobs_total{outcome="computed"} 1`) {
		t.Errorf("dump did not count the computed job:\n%s", a.String())
	}
}
