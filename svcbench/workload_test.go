package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"sparsehamming/internal/exp"
)

// generate builds a workload in a fresh directory.
func generate(t *testing.T, name string, seed int64) *Workload {
	t.Helper()
	w, err := buildWorkload(name, seed, t.TempDir())
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return w
}

// bodies returns a workload's spec bodies with the trace directory
// masked, so lists generated in different directories compare.
func bodies(w *Workload) [][]byte {
	out := make([][]byte, len(w.Requests))
	for i, r := range w.Requests {
		out[i] = r.Body
		if w.TraceDir != "" {
			out[i] = bytes.ReplaceAll(r.Body, []byte(w.TraceDir), []byte("<traces>"))
		}
	}
	return out
}

func TestWorkloadDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := generate(t, name, 1), generate(t, name, 1), generate(t, name, 2)
		if !slices.EqualFunc(bodies(a), bodies(b), bytes.Equal) {
			t.Errorf("%s: seed 1 generated two different request lists", name)
		}
		if slices.EqualFunc(bodies(a), bodies(c), bytes.Equal) {
			t.Errorf("%s: seeds 1 and 2 generated the same request list", name)
		}
		if !slices.Equal(a.Sizes, c.Sizes) {
			t.Errorf("%s: class sizes depend on the seed: %v vs %v", name, a.Sizes, c.Sizes)
		}
		for i, path := range a.TraceFiles {
			da, _ := os.ReadFile(path)
			db, _ := os.ReadFile(b.TraceFiles[i])
			dc, _ := os.ReadFile(c.TraceFiles[i])
			if !bytes.Equal(da, db) || bytes.Equal(da, dc) {
				t.Errorf("%s: trace %s not deterministic per seed", name, filepath.Base(path))
			}
		}
	}
}

func TestStratificationKeepsPercentilesInOneClass(t *testing.T) {
	for _, name := range workloadNames {
		for _, seed := range []int64{1, 2, 3} {
			w := generate(t, name, seed)
			primary, hits := 0, 0
			for i := range w.Requests {
				if w.primary(&w.Requests[i]) {
					primary++
				} else {
					hits++
				}
			}
			total := 0
			for _, n := range w.Sizes {
				total += n
			}
			if total != primary {
				t.Fatalf("%s: classes %v cover %d of %d primary requests", name, w.Classes, total, primary)
			}
			if primary < 100 {
				t.Errorf("%s: %d primary requests, want >= 100", name, primary)
			}
			for _, p := range []float64{50, 90} {
				idx, err := percentileIndex(primary, p)
				if err != nil {
					t.Fatalf("%s p%g: %v", name, p, err)
				}
				class, margin := classAt(w.Sizes, idx)
				if class < 0 || margin < 10 {
					t.Errorf("%s seed %d: p%g rank %d is %d ranks from a class edge (class %d, sizes %v)",
						name, seed, p, idx, margin, class, w.Sizes)
				}
			}
			if w.HitClass != "" {
				if _, err := percentileIndex(hits, 90); err != nil {
					t.Errorf("%s: hit p90: %v", name, err)
				}
			}
		}
	}
}

func TestPredictMixShape(t *testing.T) {
	w := generate(t, PredictMix, 1)
	mempool, both := 0, 0
	for _, r := range w.Requests {
		if r.Class == "mempool" {
			mempool++
			want := exp.Job{Mode: exp.ModePredict, Scenario: "mempool", Topo: "flattened-butterfly", Quality: "quick", Seed: 1}
			if len(r.Jobs) != 1 || r.Jobs[0].Key() != want.Key() {
				t.Errorf("mempool campaign expands to %v, want the Table III job", r.Jobs)
			}
		}
		if len(r.Jobs) == 2 {
			both++
		}
	}
	if mempool != 1 {
		t.Errorf("%d MemPool campaigns, want 1", mempool)
	}
	if share := float64(both) / float64(len(w.Requests)); share < 0.2 || share > 0.3 {
		t.Errorf("both-tier share %.2f, want about a quarter", share)
	}
}

func TestCacheRWWritesAreFresh(t *testing.T) {
	w := generate(t, CacheRW, 1)
	cached := map[string]bool{}
	for _, s := range append(w.Readers, w.FillSpec) {
		r, err := newRequest("", 0, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range r.Jobs {
			cached[j.Key()] = true
		}
	}
	seen := map[string]bool{}
	for _, r := range w.Requests {
		for _, j := range r.Jobs {
			switch r.Class {
			case "write":
				if cached[j.Key()] || seen[j.Key()] {
					t.Fatalf("writer job %s is not fresh", j)
				}
				seen[j.Key()] = true
			case "read":
				if !cached[j.Key()] {
					t.Fatalf("reader job %s is not pre-filled", j)
				}
			}
		}
	}
}

func TestCheckStratificationFailsOnMixedClasses(t *testing.T) {
	w := &Workload{Classes: []string{"small", "large"}, Sizes: []int{100, 40}}
	var out []Outcome
	add := func(class string, latency time.Duration) {
		w.Requests = append(w.Requests, Request{Class: class})
		out = append(out, Outcome{Latency: latency})
	}
	for i := 0; i < 100; i++ {
		add("small", time.Duration(10+i)*time.Millisecond)
	}
	for i := 0; i < 40; i++ {
		add("large", time.Duration(500+i)*time.Millisecond)
	}
	c := &checker{}
	c.checkStratification(w, out)
	if len(c.failures) != 0 {
		t.Fatalf("separated classes: %v", c.failures)
	}
	// Thirty large requests as fast as the small ones put a small
	// request on the p90 rank, which the design gives the large class.
	for i := 100; i < 130; i++ {
		out[i].Latency = time.Duration(i-100) * time.Millisecond
	}
	c = &checker{}
	c.checkStratification(w, out)
	if len(c.failures) == 0 {
		t.Fatal("a p90 sample from the wrong class passed")
	}
}
