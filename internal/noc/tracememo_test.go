package noc

import (
	"path/filepath"
	"testing"

	"sparsehamming/internal/sim"
	"sparsehamming/internal/spec"
	"sparsehamming/internal/trace"
)

// TestLoadSweepParsesTraceOnce pins the trace memo end to end: a load
// sweep of one trace over 8 loads, validated as a spec and then run
// through NewRunner, parses the trace file once — at validation — and
// every load point resolves it from the memo.
func TestLoadSweepParsesTraceOnce(t *testing.T) {
	tr, err := trace.Generate("bursty", trace.GenConfig{Rows: 4, Cols: 4, Cycles: 400, Seed: 3, Rate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.Generator = t.Name() + " " + t.TempDir() // bytes no other resolution has seen
	path := filepath.Join(t.TempDir(), "sweep.trace")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	s := &spec.Spec{Name: "trace-once", Sweeps: []spec.Sweep{{
		Mode:       "load",
		Arch:       spec.ArchSpec{Scenario: "a", Rows: 4, Cols: 4},
		Topologies: []spec.TopologySpec{{Kind: "mesh"}},
		Traces:     []string{path},
		Loads:      []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1},
	}}}
	before := sim.Counters()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, rep, err := NewRunner(2, nil).Run(jobs); err != nil || rep.Computed != 8 {
		t.Fatalf("Run: %v (report %+v)", err, rep)
	}
	after := sim.Counters()
	if d := after.TraceParses - before.TraceParses; d != 1 {
		t.Errorf("trace parses: got %d, want 1", d)
	}
	if d := after.TraceMemoHits - before.TraceMemoHits; d != 8 {
		t.Errorf("trace memo hits: got %d, want 8", d)
	}
}
