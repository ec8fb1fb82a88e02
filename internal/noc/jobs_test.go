package noc

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparsehamming/internal/dse"
	"sparsehamming/internal/exp"
	"sparsehamming/internal/topo"
)

// campaignJobs is a small mixed batch on a 4x4 grid, cheap enough for
// -short yet exercising the job modes with real simulations. The
// full-toolchain predict job (a saturation search, the expensive
// kind) only joins outside -short.
func campaignJobs() []exp.Job {
	jobs := []exp.Job{
		{Mode: exp.ModeCost, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh"},
		{Mode: exp.ModeCost, Scenario: "a", Rows: 4, Cols: 4, Topo: "sparse-hamming", SR: []int{2}, SC: []int{2}},
		{Mode: exp.ModeLoad, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Load: 0.2, Seed: 1},
		{Mode: exp.ModeLoad, Scenario: "a", Rows: 4, Cols: 4, Topo: "torus", Load: 0.2, Pattern: "transpose", Seed: 1},
	}
	if !testing.Short() {
		jobs = append(jobs,
			exp.Job{Mode: exp.ModePredict, Scenario: "a", Rows: 4, Cols: 4, Topo: "sparse-hamming", SR: []int{2}, SC: []int{2}, Seed: 1})
	}
	return jobs
}

// TestCampaignParallelMatchesSerial is the determinism contract on
// the real toolchain: a parallel campaign produces bit-identical
// results to a serial one.
func TestCampaignParallelMatchesSerial(t *testing.T) {
	jobs := campaignJobs()
	serial, _, err := NewRunner(1, nil).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := NewRunner(8, nil).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel toolchain results differ from serial:\n%+v\n%+v", serial, parallel)
	}
}

// TestCampaignCacheSkipsSimulations checks that a repeated campaign
// with a persistent cache performs zero new evaluations and returns
// identical results.
func TestCampaignCacheSkipsSimulations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	jobs := campaignJobs()

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

	// Fresh process simulation: reopen the cache from disk.
	cache2, err := exp.OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	second, rep2, err := NewRunner(0, cache2).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Computed != 0 || rep2.CacheHits != len(jobs) {
		t.Errorf("second run report = %+v, want all cache hits", rep2)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached results differ from computed ones")
	}
}

func TestEvalJobErrors(t *testing.T) {
	cases := []exp.Job{
		{Mode: exp.ModePredict, Scenario: "z", Topo: "mesh"},
		{Mode: exp.ModePredict, Scenario: "a", Topo: "moebius"},
		{Mode: exp.ModePredict, Scenario: "a", Topo: "mesh", Routing: "left-hand"},
		{Mode: exp.ModePredict, Scenario: "a", Topo: "mesh", Quality: "heroic"},
		{Mode: exp.ModeLoad, Scenario: "a", Topo: "mesh", Pattern: "tornado"},
		{Mode: "paint", Scenario: "a", Topo: "mesh"},
	}
	for _, j := range cases {
		if _, err := EvalJob(j); err == nil {
			t.Errorf("EvalJob(%v) should fail", j)
		}
	}
}

// TestLoadJobRejectsOversizedBuffers: a buffer depth past the
// engine's 16-bit ring and credit counters must fail the job with the
// limit in its error — on the fresh-build path and through the shape
// memo — instead of simulating a network that delivers nothing and
// returning that as a result the cache would keep.
func TestLoadJobRejectsOversizedBuffers(t *testing.T) {
	j := exp.Job{Mode: exp.ModeLoad, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Load: 0.1, Seed: 1,
		Arch: &exp.ArchOverride{BufDepthFlits: 40000}}
	const limit = "range of 1 to 32767"
	if res, err := EvalJob(j); err == nil || !strings.Contains(err.Error(), limit) {
		t.Errorf("EvalJob: result %+v, err = %v, want the %q limit", res, err, limit)
	}
	if res, err := evalJobSched(j, nil, nil, newShapeMemo()); err == nil || !strings.Contains(err.Error(), limit) {
		t.Errorf("memoized eval: result %+v, err = %v, want the %q limit", res, err, limit)
	}
}

// TestEvalJobMatchesPredictWith pins the adapter: a predict job
// evaluates to exactly what the direct toolchain call produces.
func TestEvalJobMatchesPredictWith(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full toolchain twice")
	}
	job := exp.Job{Mode: exp.ModePredict, Scenario: "a", Rows: 4, Cols: 4, Topo: "mesh", Seed: 1}
	res, err := EvalJob(job)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := ArchForJob(job)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := topo.NewMesh(arch.Rows, arch.Cols)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Predict(arch, mesh, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if got := PredictionFromResult(res); !reflect.DeepEqual(got, direct) {
		t.Errorf("job result %+v\n!= direct prediction %+v", got, direct)
	}
}

// TestParamsStringOnlyForHamming pins the fix for stray SR/SC on
// other topology kinds: ruche reads SR as its factor, so it must not
// be reported as sparse Hamming offsets.
func TestParamsStringOnlyForHamming(t *testing.T) {
	res, err := EvalJob(exp.Job{Mode: exp.ModeCost, Scenario: "a", Rows: 4, Cols: 4, Topo: "ruche", SR: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Params != "" {
		t.Errorf("ruche result carries params %q, want none", res.Params)
	}
	shg, err := EvalJob(exp.Job{Mode: exp.ModeCost, Scenario: "a", Rows: 4, Cols: 4, Topo: "sparse-hamming", SR: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if shg.Params == "" {
		t.Error("sparse-hamming result should carry its params string")
	}
}

// TestCostJobsAgreeAcrossEvaluators pins the cache-sharing contract:
// a ModeCost sparse Hamming job must evaluate identically under the
// dse evaluator and the noc toolchain evaluator, because both store
// results under the same content key.
func TestCostJobsAgreeAcrossEvaluators(t *testing.T) {
	jobs := []exp.Job{
		{Mode: exp.ModeCost, Scenario: "a", Rows: 4, Cols: 4, Topo: "sparse-hamming"},
		{Mode: exp.ModeCost, Scenario: "a", Rows: 4, Cols: 5, Topo: "sparse-hamming", SR: []int{2, 4}, SC: []int{2}},
	}
	for _, j := range jobs {
		fromNoc, err := EvalJob(j)
		if err != nil {
			t.Fatal(err)
		}
		fromDse, err := dse.EvalJob(j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromNoc, fromDse) {
			t.Errorf("evaluators disagree on %v:\nnoc: %+v\ndse: %+v", j, fromNoc, fromDse)
		}
	}
}

func TestQualityNames(t *testing.T) {
	for _, q := range []Quality{Quick, Full} {
		back, err := QualityByName(QualityName(q))
		if err != nil || back != q {
			t.Errorf("quality %v round-trips to %v, %v", q, back, err)
		}
	}
	if q, err := QualityByName(""); err != nil || q != Quick {
		t.Errorf("empty quality = %v, %v, want Quick", q, err)
	}
	if _, err := QualityByName("heroic"); err == nil {
		t.Error("unknown quality should fail")
	}
}
