package noc

import (
	"path/filepath"
	"reflect"
	"testing"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/obs"
	"sparsehamming/internal/sim"
)

// predictLadder is a set of predict jobs sharing one topology
// instance — one shape-memo entry, with quality tier, pattern, and
// seed varying per job.
func predictLadder() []exp.Job {
	return []exp.Job{
		{Mode: exp.ModePredict, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Seed: 1},
		{Mode: exp.ModePredict, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Seed: 2, Pattern: "transpose"},
		{Mode: exp.ModePredict, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Seed: 3, Quality: "adaptive"},
	}
}

// TestGroupedPredictEvalMatchesPerJob is the predict-side parity
// contract: jobs evaluated through the observed runner's one shared
// Shape produce byte-identical results — SimCycles included — to
// per-job EvalJob builds.
func TestGroupedPredictEvalMatchesPerJob(t *testing.T) {
	jobs := predictLadder()
	want := freshResults(t, jobs)
	got, _, err := NewObservedRunner(2, nil, obs.NewHub()).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, jobs, got, want)
}

// mixedTierLadder is one topology predicted at every quality tier
// with the same pattern and seed — the configuration whose zero-load
// reference runs coincide, so the memo entry shares one anchor across
// the tiers.
func mixedTierLadder() []exp.Job {
	return []exp.Job{
		{Mode: exp.ModePredict, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Seed: 1},
		{Mode: exp.ModePredict, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Seed: 1, Quality: "full"},
		{Mode: exp.ModePredict, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Seed: 1, Quality: "adaptive"},
	}
}

// TestPredictGroupSharesZeroLoadAnchor pins the cross-tier anchor
// contract: a mixed-tier campaign through the runner's shape memo
// reproduces the per-tier schedules exactly (byte-identical results)
// while simulating the shared zero-load reference only once — the
// other tiers reuse the anchor, visible as exactly two fewer
// simulation runs than the per-job path.
func TestPredictGroupSharesZeroLoadAnchor(t *testing.T) {
	jobs := mixedTierLadder()

	before := sim.Counters()
	want := freshResults(t, jobs)
	mid := sim.Counters()
	got, _, err := NewRunner(0, nil).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	after := sim.Counters()

	assertSameBytes(t, jobs, got, want)
	if d := after.AnchorReuses - mid.AnchorReuses; d != int64(len(jobs)-1) {
		t.Errorf("memo reused the anchor %d times, want %d", d, len(jobs)-1)
	}
	perJob := mid.Runs - before.Runs
	memo := after.Runs - mid.Runs
	if memo != perJob-int64(len(jobs)-1) {
		t.Errorf("memo path ran %d simulations vs %d per-job, want exactly %d fewer",
			memo, perJob, len(jobs)-1)
	}
}

// TestMixedTierRerunSimulatesNothing drives the mixed-tier ladder
// through the campaign runner twice with a persistent cache: the
// second run must hit the cache for every job and start zero
// simulation runs.
func TestMixedTierRerunSimulatesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	jobs := mixedTierLadder()

	cache, err := exp.OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	first, rep1, err := NewRunner(0, cache).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Computed != len(jobs) || rep1.CacheHits != 0 {
		t.Errorf("first run report = %+v", rep1)
	}
	if err := cache.Save(); err != nil {
		t.Fatal(err)
	}

	cache2, err := exp.OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	before := sim.Counters()
	second, rep2, err := NewRunner(0, cache2).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	after := sim.Counters()
	if rep2.Computed != 0 || rep2.CacheHits != len(jobs) {
		t.Errorf("second run report = %+v, want all cache hits", rep2)
	}
	if d := after.Runs - before.Runs; d != 0 {
		t.Errorf("re-run started %d simulation runs, want 0", d)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached results differ from computed ones")
	}
}

// TestPredictGroupKey pins the memo key's equivalence classes for
// predict jobs: tiers, patterns, and seeds of one topology share a
// key, while the key ignores the job mode entirely — a predict job and
// a load point on the same topology share one build.
func TestPredictGroupKey(t *testing.T) {
	jobs := predictLadder()
	k0 := shapeKey(jobs[0])
	for _, j := range jobs[1:] {
		if k := shapeKey(j); k != k0 {
			t.Errorf("ladder job %v got key %q, want %q", j, k, k0)
		}
	}
	lj := exp.Job{Mode: exp.ModeLoad, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Load: 0.1}
	if k := shapeKey(lj); k != k0 {
		t.Errorf("load job on the same topology got key %q, want %q", k, k0)
	}
	j := jobs[0]
	j.Rows, j.Cols = 6, 6
	if shapeKey(j) == k0 {
		t.Error("different grid shares a memo key")
	}
	j = jobs[0]
	j.SR = []int{2}
	if shapeKey(j) == k0 {
		t.Error("different offsets share a memo key")
	}
}
