package noc

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/obs"
	"sparsehamming/internal/sim"
)

// loadLadder is a mixed load sweep on one topology — one shape-memo
// entry, with pattern, load, seed, and quality varying per point.
func loadLadder() []exp.Job {
	return []exp.Job{
		{Mode: exp.ModeLoad, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Load: 0.05, Seed: 1},
		{Mode: exp.ModeLoad, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Load: 0.1, Pattern: "transpose", Seed: 2},
		{Mode: exp.ModeLoad, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Load: 0.2, Seed: 3, Quality: "adaptive"},
		{Mode: exp.ModeLoad, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Load: 0.4, Pattern: "shuffle", Seed: 4},
	}
}

// freshResults evaluates every job through EvalJob, which builds each
// one afresh — the oracle for the runner's shape memo.
func freshResults(t *testing.T, jobs []exp.Job) []*exp.Result {
	t.Helper()
	out := make([]*exp.Result, len(jobs))
	for i, j := range jobs {
		res, err := EvalJob(j)
		if err != nil {
			t.Fatalf("EvalJob(%v): %v", j, err)
		}
		out[i] = res
	}
	return out
}

// assertSameBytes fails unless got and want serialize to the same
// bytes — the form results are cached and rendered in.
func assertSameBytes(t *testing.T, jobs []exp.Job, got, want []*exp.Result) {
	t.Helper()
	for i := range jobs {
		g, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		w, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(g) != string(w) {
			t.Errorf("job %v:\nmemo  %s\nfresh %s", jobs[i], g, w)
		}
	}
}

// TestGroupedLoadEvalMatchesPerJob is the noc-level parity contract:
// a load ladder evaluated through the observed runner — its points
// sharing one memoized Shape — produces byte-identical results,
// SimCycles included, to per-job EvalJob builds.
func TestGroupedLoadEvalMatchesPerJob(t *testing.T) {
	jobs := loadLadder()
	want := freshResults(t, jobs)
	got, _, err := NewObservedRunner(2, nil, obs.NewHub()).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	assertSameBytes(t, jobs, got, want)
}

// TestLoadGroupKey pins what the memo key does and does not
// distinguish: the points of a load sweep — and predict jobs on the
// same topology — share a key, other topologies, routings, or
// architectures never do.
func TestLoadGroupKey(t *testing.T) {
	jobs := loadLadder()
	k0 := shapeKey(jobs[0])
	for _, j := range jobs[1:] {
		if k := shapeKey(j); k != k0 {
			t.Errorf("ladder job %v got key %q, want %q", j, k, k0)
		}
	}
	pj := exp.Job{Mode: exp.ModePredict, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Quality: "full"}
	if k := shapeKey(pj); k != k0 {
		t.Errorf("predict job on the ladder's topology got key %q, want %q", k, k0)
	}

	j := jobs[0]
	j.Topo = "torus"
	if shapeKey(j) == k0 {
		t.Error("different topology shares a memo key")
	}
	j = jobs[0]
	j.Routing = "hop-minimal"
	if shapeKey(j) == k0 {
		t.Error("different routing shares a memo key")
	}
	j = jobs[0]
	j.Arch = &exp.ArchOverride{NumVCs: 8}
	if shapeKey(j) == k0 {
		t.Error("different architecture override shares a memo key")
	}
}

// TestRunnerGroupsLoadSweep checks the wiring end to end: a campaign
// of load points builds its topology once (visible in the simulator's
// build counters) and its results match the per-job evaluator.
func TestRunnerGroupsLoadSweep(t *testing.T) {
	jobs := loadLadder()
	want := freshResults(t, jobs)
	r := NewRunner(4, nil)
	before := sim.Counters()
	got, rep, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	after := sim.Counters()
	if rep.Computed != len(jobs) {
		t.Errorf("report = %+v, want %d computed", rep, len(jobs))
	}
	if d := after.ShapeBuilds - before.ShapeBuilds; d != 1 {
		t.Errorf("shape builds: got %d, want 1", d)
	}
	if d := after.SimBuilds - before.SimBuilds; d != int64(len(jobs)) {
		t.Errorf("replica builds: got %d, want %d", d, len(jobs))
	}
	assertSameBytes(t, jobs, got, want)
}

// TestGroupFallbackOnBadMember: when one point of a ladder cannot be
// evaluated (here: an unknown traffic pattern), only that point fails
// — the memo shares builds, never failures — and the good points
// keep their usual results.
func TestGroupFallbackOnBadMember(t *testing.T) {
	jobs := loadLadder()
	bad := jobs[0]
	bad.Load = 0.3
	bad.Pattern = "tornado" // not a registered pattern
	jobs = append(jobs, bad)

	got, rep, err := NewRunner(4, nil).Run(jobs)
	if err == nil || !strings.Contains(err.Error(), "tornado") {
		t.Fatalf("Run error = %v, want pattern failure", err)
	}
	if rep.Failed != 1 || rep.Computed != len(jobs)-1 {
		t.Errorf("report = %+v, want 1 failed / %d computed", rep, len(jobs)-1)
	}
	if got[len(jobs)-1] != nil {
		t.Errorf("bad job produced a result: %+v", got[len(jobs)-1])
	}
	good := jobs[:len(jobs)-1]
	assertSameBytes(t, good, got[:len(good)], freshResults(t, good))
}

// TestShapeMemoSingleBuild pins the memo's concurrency and bound
// contracts (under the race detector in CI): eight goroutines
// evaluating jobs of one key build its Shape exactly once, and
// however many keys pass through, the memo never holds more than
// shapeMemoCap builds.
func TestShapeMemoSingleBuild(t *testing.T) {
	memo := newShapeMemo()
	before := sim.Counters()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := exp.Job{Mode: exp.ModeLoad, Scenario: "a", Rows: 4, Cols: 4, Topo: "torus",
				Load: 0.05 * float64(i+1), Seed: int64(i + 1)}
			_, errs[i] = evalJobSched(j, nil, nil, memo)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if d := sim.Counters().ShapeBuilds - before.ShapeBuilds; d != 1 {
		t.Errorf("shape builds: got %d, want 1", d)
	}

	for buf := 1; buf <= shapeMemoCap+4; buf++ {
		j := exp.Job{Mode: exp.ModeLoad, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh",
			Arch: &exp.ArchOverride{BufDepthFlits: buf}}
		if _, _, err := memo.get(j, nil); err != nil {
			t.Fatalf("buffer depth %d: %v", buf, err)
		}
		if n := len(memo.entries); n > shapeMemoCap {
			t.Fatalf("memo holds %d builds, cap is %d", n, shapeMemoCap)
		}
	}
}
