package noc

import (
	"encoding/json"
	"strings"
	"testing"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/obs"
	"sparsehamming/internal/sim"
)

// TestObservedRunnerRecordsSpanTree runs one small predict job through
// an observed runner and checks the recorded execution trace has the
// documented shape: job → cost + saturation → zeroload and probes →
// warmup/measure phases.
func TestObservedRunnerRecordsSpanTree(t *testing.T) {
	hub := obs.NewHub()
	r := NewObservedRunner(2, nil, hub)
	job := exp.Job{Mode: exp.ModePredict, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Seed: 1}
	if _, _, err := r.Run([]exp.Job{job}); err != nil {
		t.Fatal(err)
	}

	root := hub.Traces.Get(job.Key())
	if root == nil {
		t.Fatal("no trace recorded under the job key")
	}
	if root.Name != "job" || root.Attrs["mode"] != "predict" || root.Attrs["topo"] != "mesh" {
		t.Fatalf("root span wrong: name=%q attrs=%v", root.Name, root.Attrs)
	}
	if root.DurMs <= 0 {
		t.Errorf("root span not ended: dur_ms=%v", root.DurMs)
	}
	if root.Find("cost") == nil {
		t.Error("no cost span in the tree")
	}
	sat := root.Find("saturation")
	if sat == nil {
		t.Fatal("no saturation span in the tree")
	}
	if sat.Find("zeroload") == nil {
		t.Error("no zeroload span under saturation")
	}

	// Every probe must nest under the saturation span, carry its
	// injection rate, and contain the engine's phase spans.
	probes := 0
	for _, c := range sat.Children {
		if c.Name != "probe" {
			continue
		}
		probes++
		if _, ok := c.Attrs["rate"]; !ok {
			t.Errorf("probe span without rate attr: %v", c.Attrs)
		}
		if c.Find("warmup") == nil || c.Find("measure") == nil {
			t.Errorf("probe span missing phase children: %v", names(c))
		}
	}
	if probes == 0 {
		t.Error("saturation span has no probe children")
	}
	// No probe spans anywhere else in the tree.
	total := 0
	root.Walk(func(s *obs.Span) {
		if s.Name == "probe" {
			total++
		}
	})
	if total != probes {
		t.Errorf("%d probe spans in the tree, %d under saturation", total, probes)
	}

	// The tree is wire-ready.
	if _, err := json.Marshal(root); err != nil {
		t.Errorf("trace does not marshal: %v", err)
	}

	// The phase histogram saw the phases the trace recorded.
	var b strings.Builder
	if err := hub.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, phase := range []string{"probe", "warmup", "measure", "zeroload", "cost", "saturation"} {
		want := `sh_sim_phase_seconds_count{phase="` + phase + `"}`
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestObservedRunnerAdaptiveSpeculativeProbes runs an adaptive-tier
// job on an observed runner and checks that every bisection probe's
// span lands under the saturation span. (The test's name is
// historical: every probe runs on the job's goroutine.)
func TestObservedRunnerAdaptiveSpeculativeProbes(t *testing.T) {
	hub := obs.NewHub()
	r := NewObservedRunner(4, nil, hub)
	job := exp.Job{Mode: exp.ModePredict, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Quality: "adaptive", Seed: 1}
	if _, _, err := r.Run([]exp.Job{job}); err != nil {
		t.Fatal(err)
	}
	root := hub.Traces.Get(job.Key())
	if root == nil {
		t.Fatal("no trace recorded under the job key")
	}
	sat := root.Find("saturation")
	if sat == nil {
		t.Fatal("no saturation span in the tree")
	}
	probes := 0
	for _, c := range sat.Children {
		if c.Name == "probe" {
			probes++
			if c.DurMs < 0 {
				t.Errorf("probe span with negative duration: %v", c.DurMs)
			}
		}
	}
	if probes == 0 {
		t.Error("adaptive saturation recorded no probe spans")
	}
	if _, err := json.Marshal(root); err != nil {
		t.Errorf("trace does not marshal: %v", err)
	}
}

// TestSimCountersMonotonic pins the run-boundary counter contract:
// more simulation can only move the process-wide counters up.
func TestSimCountersMonotonic(t *testing.T) {
	before := sim.Counters()
	r := NewObservedRunner(2, nil, obs.NewHub())
	job := exp.Job{Mode: exp.ModeLoad, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Load: 0.1, Seed: 1}
	if _, _, err := r.Run([]exp.Job{job}); err != nil {
		t.Fatal(err)
	}
	after := sim.Counters()
	if after.Runs <= before.Runs {
		t.Errorf("runs counter did not advance: %d -> %d", before.Runs, after.Runs)
	}
	if after.Cycles <= before.Cycles {
		t.Errorf("cycles counter did not advance: %d -> %d", before.Cycles, after.Cycles)
	}
	if after.FlitHops < before.FlitHops {
		t.Errorf("flit-hops counter went backwards: %d -> %d", before.FlitHops, after.FlitHops)
	}
}

// names lists a span's direct child names (test diagnostics).
func names(s *obs.Span) []string {
	out := make([]string, len(s.Children))
	for i, c := range s.Children {
		out[i] = c.Name
	}
	return out
}
