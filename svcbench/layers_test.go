package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"sparsehamming/internal/obs"
)

func TestReadStatusKB(t *testing.T) {
	status := "Name:\tshserved\nVmPeak:\t  812344 kB\nVmHWM:\t   61136 kB\nVmRSS:\t   60000 kB\n"
	for field, want := range map[string]int64{"VmHWM": 61136, "VmRSS": 60000} {
		kb, err := readStatusKB(strings.NewReader(status), field)
		if err != nil || kb != want {
			t.Errorf("%s = %d, %v; want %d", field, kb, err, want)
		}
	}
	if _, err := readStatusKB(strings.NewReader("Name:\tx\nVmRSS:\t1 kB\n"), "VmHWM"); err == nil {
		t.Error("status without VmHWM accepted")
	}
	if _, err := readStatusKB(strings.NewReader("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("VmHWM in an unexpected unit accepted")
	}
}

func TestParseMetrics(t *testing.T) {
	text := "# HELP sh_sim_runs_total Runs.\n# TYPE sh_sim_runs_total counter\n" +
		"sh_sim_runs_total 42\n" +
		"sh_runner_jobs_total{outcome=\"cached\"} 7\n" +
		"sh_runner_busy_seconds_total 1.5e+00\n"
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["sh_sim_runs_total"] != 42 || m[`sh_runner_jobs_total{outcome="cached"}`] != 7 || m["sh_runner_busy_seconds_total"] != 1.5 {
		t.Errorf("parsed %v", m)
	}
	if _, err := parseMetrics(strings.NewReader("sh_x notanumber\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	root := &obs.Span{Name: "job", DurMs: 10, Children: []*obs.Span{
		{Name: "cost", StartMs: 1, DurMs: 2},
		{Name: "saturation", StartMs: 2, DurMs: 5}, // overlaps cost by 1
	}}
	if got := selfMs(root); math.Abs(got-4) > 1e-9 {
		t.Errorf("self = %g, want 4 (10 - union 6)", got)
	}
	if got := unionLen([]interval{{0, 1}, {3, 4}, {0.5, 2}}); math.Abs(got-3) > 1e-9 {
		t.Errorf("union = %g, want 3", got)
	}
}

func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, svcbench reports %v", e2e, endToEnd)
	}
	declared := map[string]bool{}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		declared[m.Name] = true
		if units[m.Name] != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, svcbench unit %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for name := range units {
		if !declared[name] {
			t.Errorf("svcbench metric %s is not declared in BENCHMARK.json", name)
		}
	}
}
