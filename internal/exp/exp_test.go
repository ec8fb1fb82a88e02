package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// fakeEval is a deterministic evaluator: the result depends only on
// the job spec, like the real toolchain evaluators.
func fakeEval(calls *atomic.Int64) func(Job) (*Result, error) {
	return func(j Job) (*Result, error) {
		if calls != nil {
			calls.Add(1)
		}
		if j.Topo == "broken" {
			return nil, fmt.Errorf("no such topology")
		}
		return &Result{
			Topology: j.Topo,
			AvgHops:  float64(len(j.SR)+len(j.SC)) + j.Load,
			NumLinks: int(j.EffectiveSeed() % 1000),
		}, nil
	}
}

// testJobs is a fixed job set with a duplicate spec (indices 1 and 3).
func testJobs() []Job {
	return []Job{
		{Mode: ModePredict, Scenario: "a", Topo: "mesh"},
		{Mode: ModePredict, Scenario: "a", Topo: "sparse-hamming", SR: []int{4}, SC: []int{2, 5}},
		{Mode: ModeLoad, Scenario: "b", Topo: "torus", Load: 0.3, Pattern: "transpose"},
		{Mode: ModePredict, Scenario: "a", Topo: "sparse-hamming", SR: []int{4}, SC: []int{2, 5}},
		{Mode: ModeCost, Scenario: "c", Rows: 4, Cols: 5, Topo: "sparse-hamming", SR: []int{2}},
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	jobs := testJobs()
	serialRunner := &Runner{Eval: fakeEval(nil), Workers: 1}
	serial, serialRep, err := serialRunner.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallelRunner := &Runner{Eval: fakeEval(nil), Workers: 8}
	parallel, parallelRep, err := parallelRunner.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel results differ from serial:\n%v\n%v", serial, parallel)
	}
	if serialRep.Unique != 4 || parallelRep.Unique != 4 {
		t.Errorf("unique = %d/%d, want 4 (one duplicate)", serialRep.Unique, parallelRep.Unique)
	}
	if serialRep.Computed != 4 || parallelRep.Computed != 4 {
		t.Errorf("computed = %d/%d, want 4", serialRep.Computed, parallelRep.Computed)
	}
	// The duplicate indices share one result.
	if serial[1] != serial[3] {
		t.Error("duplicate jobs should share one result")
	}
}

func TestRunnerCacheAccounting(t *testing.T) {
	jobs := testJobs()
	var calls atomic.Int64
	cache := NewCache()
	r := &Runner{Eval: fakeEval(&calls), Workers: 4, Cache: cache}

	first, rep1, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CacheHits != 0 || rep1.Computed != 4 {
		t.Errorf("first run: %+v, want 0 hits, 4 computed", rep1)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("first run evaluated %d times, want 4 (dedup)", got)
	}

	second, rep2, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheHits != 4 || rep2.Computed != 0 {
		t.Errorf("second run: %+v, want 4 hits, 0 computed", rep2)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("second run re-evaluated: %d total calls, want still 4", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached results differ from computed ones")
	}
	hits, misses := cache.Stats()
	if hits != 4 || misses != 4 {
		t.Errorf("cache stats = %d hits, %d misses, want 4/4", hits, misses)
	}
}

func TestRunnerErrorIsDeterministic(t *testing.T) {
	jobs := []Job{
		{Mode: ModePredict, Scenario: "a", Topo: "mesh"},
		{Mode: ModePredict, Scenario: "a", Topo: "broken"},
		{Mode: ModePredict, Scenario: "b", Topo: "broken", SR: []int{2}},
		{Mode: ModePredict, Scenario: "a", Topo: "torus"},
	}
	for _, workers := range []int{1, 8} {
		r := &Runner{Eval: fakeEval(nil), Workers: workers}
		results, rep, err := r.Run(jobs)
		if err == nil {
			t.Fatal("expected an error")
		}
		// Always the lowest-indexed failing job, regardless of
		// completion order.
		if !strings.Contains(err.Error(), "job 1") {
			t.Errorf("workers=%d: error %q, want the job-1 failure", workers, err)
		}
		if rep.Failed != 2 {
			t.Errorf("workers=%d: failed = %d, want 2", workers, rep.Failed)
		}
		// Successful jobs still return results.
		if results[0] == nil || results[3] == nil || results[1] != nil {
			t.Errorf("workers=%d: partial results wrong: %v", workers, results)
		}
	}
}

func TestRunnerProgressEvents(t *testing.T) {
	var events []ProgressEvent
	r := &Runner{
		Eval: fakeEval(nil), Workers: 4,
		Progress: func(ev ProgressEvent) { events = append(events, ev) },
	}
	if _, _, err := r.Run(testJobs()); err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("%d progress events, want 4 (unique jobs)", len(events))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 4 {
			t.Errorf("event %d = %d/%d, want %d/4", i, ev.Done, ev.Total, i+1)
		}
	}
}

func TestKeyStability(t *testing.T) {
	a := Job{Mode: ModePredict, Scenario: "a", Topo: "mesh"}
	b := Job{Mode: ModePredict, Scenario: "a", Topo: "mesh", Routing: "auto", Pattern: "uniform", Quality: "quick"}
	if a.Key() != b.Key() {
		t.Error("explicit defaults must hash like the zero value")
	}
	variants := []Job{
		{Mode: ModeCost, Scenario: "a", Topo: "mesh"},
		{Mode: ModePredict, Scenario: "b", Topo: "mesh"},
		{Mode: ModePredict, Scenario: "a", Topo: "torus"},
		{Mode: ModePredict, Scenario: "a", Topo: "mesh", SR: []int{2}},
		{Mode: ModePredict, Scenario: "a", Topo: "mesh", Seed: 2},
		{Mode: ModePredict, Scenario: "a", Topo: "mesh", Quality: "full"},
		{Mode: ModePredict, Scenario: "a", Topo: "mesh", Rows: 4, Cols: 4},
		{Mode: ModeLoad, Scenario: "a", Topo: "mesh", Load: 0.25},
	}
	seen := map[string]bool{a.Key(): true}
	for _, v := range variants {
		k := v.Key()
		if seen[k] {
			t.Errorf("key collision for %v", v)
		}
		seen[k] = true
	}
}

// TestArchOverrideKeys pins the arch-override hashing contract: a nil
// override and an all-zero one hash identically (so pre-override
// cache keys stay valid), while any set field produces a distinct
// key, and distinct overrides do not collide.
func TestArchOverrideKeys(t *testing.T) {
	base := Job{Mode: ModePredict, Scenario: "a", Topo: "mesh"}
	zero := base
	zero.Arch = &ArchOverride{}
	if base.Key() != zero.Key() {
		t.Error("zero override must hash like a nil one")
	}
	if base.EffectiveSeed() != zero.EffectiveSeed() {
		t.Error("zero override must derive the same seed as a nil one")
	}
	overrides := []ArchOverride{
		{EndpointGE: 50e6},
		{CoresPerTile: 2},
		{FreqHz: 1e9},
		{LinkBWBits: 256},
		{NumVCs: 4},
		{BufDepthFlits: 8},
		{TileAspect: 2},
		{EndpointGE: 50e6, CoresPerTile: 2},
	}
	seen := map[string]bool{base.Key(): true}
	for _, o := range overrides {
		j := base
		o := o
		j.Arch = &o
		k := j.Key()
		if seen[k] {
			t.Errorf("key collision for override %+v", o)
		}
		seen[k] = true
	}
}

func TestEffectiveSeedDeterministic(t *testing.T) {
	j := Job{Mode: ModePredict, Scenario: "a", Topo: "mesh"}
	if j.EffectiveSeed() != j.EffectiveSeed() {
		t.Error("derived seed not stable")
	}
	if j.EffectiveSeed() <= 0 {
		t.Error("derived seed must be positive")
	}
	k := j
	k.Seed = 7
	if k.EffectiveSeed() != 7 {
		t.Error("explicit seed must win")
	}
	other := Job{Mode: ModePredict, Scenario: "b", Topo: "mesh"}
	if j.EffectiveSeed() == other.EffectiveSeed() {
		t.Error("distinct specs should derive distinct seeds")
	}
}

func TestCacheMissingFile(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatalf("missing cache file must not error: %v", err)
	}
	if c.Len() != 0 {
		t.Errorf("fresh cache has %d entries", c.Len())
	}
}

func TestCacheCorruptedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path)
	if err == nil {
		t.Error("corrupted cache should report an error")
	}
	if c == nil || c.Len() != 0 {
		t.Fatal("corrupted cache must still yield a usable empty cache")
	}
	// The cache works and can overwrite the corrupted file.
	j := Job{Mode: ModeCost, Scenario: "a", Topo: "mesh"}
	c.Put(j, &Result{Topology: "mesh"})
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenCache(path)
	if err != nil {
		t.Fatalf("saved cache unreadable: %v", err)
	}
	if res, ok := re.Get(j.Key()); !ok || res.Topology != "mesh" {
		t.Errorf("round-trip lost the entry: %v %v", res, ok)
	}
}

// TestCacheReadErrorDisablesPersistence pins the data-safety rule: a
// cache file that exists but cannot be read (here: it is a
// directory) must not be overwritten by a later Save — only
// corrupted files, which are already unusable, may be replaced.
func TestCacheReadErrorDisablesPersistence(t *testing.T) {
	dir := t.TempDir() // a directory at the cache path: ReadFile fails, the path exists
	c, err := OpenCache(dir)
	if err == nil {
		t.Error("unreadable cache should report an error")
	}
	c.Put(Job{Mode: ModeCost, Scenario: "a", Topo: "mesh"}, &Result{})
	if err := c.Save(); err != nil {
		t.Errorf("Save must be a no-op, got %v", err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Error("Save overwrote the unreadable path")
	}
}

func TestCacheVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"entries":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path)
	if err == nil {
		t.Error("version mismatch should report an error")
	}
	if c.Len() != 0 {
		t.Error("version mismatch must start fresh")
	}
}

func TestCacheSaveRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "cache.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs()
	for i, j := range jobs {
		c.Put(j, &Result{Topology: j.Topo, NumLinks: i})
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 4 { // one duplicate collapses
		t.Errorf("reloaded %d entries, want 4", re.Len())
	}
	for _, j := range jobs {
		if _, ok := re.Get(j.Key()); !ok {
			t.Errorf("entry %v missing after reload", j)
		}
	}
	// In-memory caches ignore Save.
	if err := NewCache().Save(); err != nil {
		t.Errorf("in-memory Save() = %v", err)
	}
}

// TestCacheSavePreservesPermissions: rewriting via temp-file+rename
// must not silently tighten a shared cache file's mode.
func TestCacheSavePreservesPermissions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, []byte(fmt.Sprintf(`{"version":%d,"entries":{}}`, cacheVersion)), 0o664); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o664); err != nil { // WriteFile's mode is masked by umask
		t.Fatal(err)
	}
	c, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(Job{Mode: ModeCost, Scenario: "a", Topo: "mesh"}, &Result{})
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o664 {
		t.Errorf("saved cache mode = %v, want 0664 preserved", fi.Mode().Perm())
	}
}

func TestRunnerWithoutEval(t *testing.T) {
	r := &Runner{}
	if _, _, err := r.Run(testJobs()); err == nil {
		t.Error("runner without Eval must error")
	}
}

func TestRunnerOnReport(t *testing.T) {
	var got *Report
	r := &Runner{
		Eval: fakeEval(nil), Workers: 2,
		OnReport: func(rep Report) { got = &rep },
	}
	if _, _, err := r.Run(testJobs()); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("OnReport not called")
	}
	if got.Jobs != 5 || got.Unique != 4 || got.Computed != 4 {
		t.Errorf("reported %+v", got)
	}
}

func TestReportString(t *testing.T) {
	rep := Report{Jobs: 12, Unique: 10, CacheHits: 3, Computed: 7}
	s := rep.String()
	if !strings.Contains(s, "12 jobs") || !strings.Contains(s, "7 computed") || !strings.Contains(s, "3 cached") {
		t.Errorf("report = %q", s)
	}
}
