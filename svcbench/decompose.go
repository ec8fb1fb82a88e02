package main

// The decomposition pass: layers shserved records no span for are
// timed here, in-process, by calling their public functions on the
// run's own unique inputs. Large input sets are sampled (seeded), and
// every metric is a mean per call.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"sparsehamming/internal/analytic"
	"sparsehamming/internal/dse"
	"sparsehamming/internal/exp"
	"sparsehamming/internal/phys"
	"sparsehamming/internal/report"
	"sparsehamming/internal/route"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/spec"
	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
	"sparsehamming/internal/trace"
)

// Per-function sample caps of the decomposition pass.
const (
	sampleSpecs     = 100
	sampleBuilds    = 40
	sampleSurrogate = 200
	cacheRepeats    = 3
)

// timed runs fn and returns its duration in milliseconds.
func timed(fn func() error) (float64, error) {
	t := time.Now()
	err := fn()
	return ms(time.Since(t)), err
}

// sample returns up to n seeded picks of [0, total) without repeats.
func sample(rng *rand.Rand, total, n int) []int {
	idx := rng.Perm(total)
	if len(idx) > n {
		idx = idx[:n]
	}
	return idx
}

// decompose times the span-less layers on the run's inputs: spec
// expansion and report rendering per request, topology/routing/Shape/
// cost-model/analytic builds per unique topology, trace parsing per
// generated trace, the surrogate per unique surrogate job, and cache
// open/save on the run's cache file (cachePath; "" when none).
func decompose(w *Workload, out []Outcome, cachePath, dir string, m map[string]float64) error {
	rng := rand.New(rand.NewSource(w.Seed + 104729))

	var expand []float64
	for _, i := range sample(rng, len(out), sampleSpecs) {
		body := w.Requests[i].Body
		d, err := timed(func() error {
			s, err := spec.Parse(body)
			if err == nil {
				err = s.Validate()
			}
			if err == nil {
				_, err = s.ExpandSweeps()
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("spec expansion: %w", err)
		}
		expand = append(expand, d)
	}
	m["spec.expand_ms"] = mean(expand)

	var render []float64
	for _, i := range sample(rng, len(out), sampleSpecs) {
		o := out[i]
		if o.Err != nil || o.Results == nil {
			continue
		}
		var results []*exp.Result
		for _, sw := range o.Results.Sweeps {
			results = append(results, sw.Results...)
		}
		r := w.Requests[i]
		var b bytes.Buffer
		d, _ := timed(func() error { report.WriteCSV(&b, r.Spec, r.Groups, results); return nil })
		render = append(render, d)
	}
	m["report.csv_ms"] = mean(render)

	// Unique topology builds and surrogate jobs of the run.
	seen := map[string]bool{}
	var builds, surrogates []exp.Job
	for _, r := range w.Requests {
		for _, j := range r.Jobs {
			if j.Mode == exp.ModeSurrogate {
				if !seen[j.Key()] {
					seen[j.Key()] = true
					surrogates = append(surrogates, j)
				}
				continue
			}
			b := j
			b.Pattern, b.Load, b.Quality, b.Seed = "", 0, "", 0
			if j.Mode != exp.ModeCost {
				b.Mode = exp.ModePredict // simulating modes build the same Shape
			}
			if !seen[b.Key()] {
				seen[b.Key()] = true
				builds = append(builds, b)
			}
		}
	}
	var topoMs, physMs, routeMs, shapeMs, analyticMs []float64
	for _, i := range sample(rng, len(builds), sampleBuilds) {
		j := builds[i]
		arch, err := spec.ArchForJob(j)
		if err != nil {
			return err
		}
		var t *topo.Topology
		d, err := timed(func() (err error) { t, err = topo.ByName(j.Topo, arch.Rows, arch.Cols, j.SR, j.SC); return })
		if err != nil {
			return fmt.Errorf("topology build: %w", err)
		}
		topoMs = append(topoMs, d)
		var cost *phys.Result
		d, err = timed(func() (err error) { cost, err = phys.Evaluate(arch, t); return })
		if err != nil {
			return fmt.Errorf("cost model: %w", err)
		}
		physMs = append(physMs, d)
		if j.Mode == exp.ModeCost {
			continue
		}
		var rt *route.Routing
		d, err = timed(func() (err error) { rt, err = route.ForName(t, j.Routing); return })
		if err != nil {
			return fmt.Errorf("routing build: %w", err)
		}
		routeMs = append(routeMs, d)
		d, err = timed(func() error {
			_, err := sim.NewShape(sim.Config{
				Topo: t, Routing: rt,
				NumVCs: arch.Proto.NumVCs, BufDepth: arch.Proto.BufDepthFlits,
				LinkLatency: cost.LinkLatencies, RouterDelay: tech.RouterDelay,
				PacketLen: arch.PacketLenFlits(),
			})
			return err
		})
		if err != nil {
			return fmt.Errorf("shape build: %w", err)
		}
		shapeMs = append(shapeMs, d)
		am := &analytic.Model{Topo: t, Routing: rt, LinkLatency: cost.LinkLatencies,
			RouterDelay: tech.RouterDelay, PacketLen: arch.PacketLenFlits()}
		d, err = timed(func() error {
			if _, err := am.ZeroLoadLatency(); err != nil {
				return err
			}
			_, err := am.SaturationBound()
			return err
		})
		if err != nil {
			return fmt.Errorf("analytic model: %w", err)
		}
		analyticMs = append(analyticMs, d)
	}
	m["topo.build_ms"] = mean(topoMs)
	m["phys.evaluate_ms"] = mean(physMs)
	m["route.build_ms"] = mean(routeMs)
	m["sim.shape_build_ms"] = mean(shapeMs)
	m["analytic.estimate_ms"] = mean(analyticMs)

	var surr []float64
	for _, i := range sample(rng, len(surrogates), sampleSurrogate) {
		d, err := timed(func() error { _, err := dse.EvalSurrogateJob(surrogates[i]); return err })
		if err != nil {
			return fmt.Errorf("surrogate: %w", err)
		}
		surr = append(surr, d)
	}
	m["dse.surrogate_ms"] = mean(surr)

	var reads []float64
	for _, path := range w.TraceFiles {
		d, err := timed(func() error { _, err := trace.ReadFile(path); return err })
		if err != nil {
			return fmt.Errorf("trace read: %w", err)
		}
		reads = append(reads, d)
	}
	m["trace.read_ms"] = mean(reads)

	m["exp.cache_open_ms"], m["exp.cache_save_ms"], m["exp.cache_mb"] = 0, 0, 0
	if cachePath == "" {
		return nil
	}
	fi, err := os.Stat(cachePath)
	if err != nil {
		return err
	}
	m["exp.cache_mb"] = float64(fi.Size()) / (1 << 20)
	data, err := os.ReadFile(cachePath)
	if err != nil {
		return err
	}
	copyPath := filepath.Join(dir, "cache-decompose.json")
	if err := os.WriteFile(copyPath, data, 0o644); err != nil {
		return err
	}
	var opens, saves []float64
	for k := 0; k < cacheRepeats; k++ {
		var c *exp.Cache
		d, err := timed(func() (err error) { c, err = exp.OpenCache(copyPath); return })
		if err != nil {
			return fmt.Errorf("cache open: %w", err)
		}
		opens = append(opens, d)
		// Re-put one entry so Save has something to persist: it writes
		// the whole file either way.
		j := w.Requests[0].Jobs[0]
		res, ok := c.Get(j.Key())
		if !ok {
			return fmt.Errorf("cache file lacks the first request's job %s", j)
		}
		c.Put(j, res)
		d, err = timed(c.Save)
		if err != nil {
			return fmt.Errorf("cache save: %w", err)
		}
		saves = append(saves, d)
	}
	m["exp.cache_open_ms"] = median(opens)
	m["exp.cache_save_ms"] = median(saves)
	return os.Remove(copyPath)
}
