package main

// Per-layer attribution of a traced run, from the interfaces shserved
// already exposes: the ?debug=trace span trees, GET /metrics deltas,
// the campaign timestamps, and the client's own spans.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/obs"
)

// scrape reads GET /metrics into series -> value (series include
// their label sets, e.g. `sh_runner_jobs_total{outcome="cached"}`).
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	body, err := get(ctx, newClient(), base+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(strings.NewReader(string(body)))
}

// parseMetrics parses Prometheus text exposition.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// gridClasses are the grid classes sim.ns_per_flit_hop is split by
// (MemPool's Table III instance is the 16x16 class).
var gridClasses = []string{"4x4", "6x6", "8x8", "16x16"}

// simPhases are the simulator's per-run phase spans.
var simPhases = []string{"warmup", "measure", "drain"}

// spanTotals accumulates span durations by name over a set of trees.
type spanTotals map[string]float64 // name -> milliseconds

func (t spanTotals) add(root *obs.Span) {
	root.Walk(func(s *obs.Span) { t[s.Name] += s.DurMs })
}

// interval is a [start, end) span extent in milliseconds.
type interval struct{ a, b float64 }

// unionLen returns the total length covered by a set of intervals.
func unionLen(ivs []interval) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := 0.0, math.Inf(-1)
	for _, v := range ivs {
		a := max(v.a, end)
		if v.b > a {
			covered += v.b - a
			end = v.b
		}
	}
	return covered
}

// extent returns a span's interval on its tree's timeline.
func extent(s *obs.Span) interval { return interval{s.StartMs, s.StartMs + s.DurMs} }

// selfMs is a span's duration minus the union of its direct
// children's intervals (children of one span may overlap).
func selfMs(s *obs.Span) float64 {
	var ivs []interval
	for _, c := range s.Children {
		ivs = append(ivs, extent(c))
	}
	return max(0, s.DurMs-unionLen(ivs))
}

// gridOf names a job's grid class.
func gridOf(j exp.Job) string {
	if j.Scenario == "mempool" {
		return "16x16"
	}
	return fmt.Sprintf("%dx%d", j.Rows, j.Cols)
}

// simWork sums the deterministic simulation work recorded in result
// documents: consumed runs (one zero-load reference plus the used
// probes per predict job, one run per load point), cycles, flit-hops,
// probes, and adaptive cycles saved.
type simWork struct {
	runs, cycles, flitHops, probes, saved int64
	predictJobs                           int
}

func (w *simWork) add(j exp.Job, r *exp.Result) {
	if r == nil {
		return
	}
	switch j.Mode {
	case exp.ModePredict:
		w.runs += 1 + int64(r.SimProbes)
		w.predictJobs++
	case exp.ModeLoad:
		w.runs++
	}
	w.cycles += r.SimCycles
	w.flitHops += r.SimFlitHops
	w.probes += int64(r.SimProbes)
	w.saved += r.SimCyclesSaved
}

// campaignTime parses a snapshot's server timestamps into (queue,
// execution) durations.
func campaignTime(o Outcome) (queue, execution time.Duration) {
	d := o.Done
	return d.Started.Sub(d.Submitted), d.Finished.Sub(d.Started)
}

// traceLayers derives the span-, metrics- and timestamp-based
// per-layer metrics of a traced pass.
func traceLayers(out []Outcome, wall time.Duration, before, after map[string]float64, m map[string]float64) {
	delta := func(series string) float64 { return after[series] - before[series] }
	workers := after["sh_runner_workers"]
	if workers <= 0 {
		workers = serverJobs
	}

	// serve: client spans and campaign timestamps.
	var submit, queue, fetch, overhead []float64
	// obs: server-side campaign time and what spans cover of it.
	var serverMs, coveredMs float64
	spans := spanTotals{}
	var selfTotal float64
	var jobs int
	var work simWork
	phaseMs := map[string]float64{}
	phaseByGrid := map[string]map[string]float64{}
	hopsByGrid := map[string]int64{}
	for _, o := range out {
		if o.Err != nil || o.Results == nil {
			continue
		}
		q, e := campaignTime(o)
		submit = append(submit, ms(o.Submit))
		queue = append(queue, ms(q))
		fetch = append(fetch, ms(o.Fetch))
		overhead = append(overhead, ms(o.Latency-e))

		var maxJob, sumUngrouped float64
		var phaseIvs, groupRoots, groupKids []interval
		phaseSum := map[string]float64{}
		grid := ""
		for _, sw := range o.Results.Sweeps {
			for k, j := range sw.Jobs {
				var r *exp.Result
				if k < len(sw.Results) {
					r = sw.Results[k]
				}
				work.add(j, r)
				grid = gridOf(j)
				if r != nil {
					hopsByGrid[grid] += r.SimFlitHops
				}
				if k >= len(sw.Traces) || sw.Traces[k] == nil {
					continue // answered from the cache: no span tree
				}
				root := sw.Traces[k]
				spans.add(root)
				jobs++
				maxJob = max(maxJob, root.DurMs)
				if j.Mode == exp.ModePredict || j.Mode == exp.ModeLoad {
					groupRoots = append(groupRoots, extent(root))
					for _, c := range root.Children {
						groupKids = append(groupKids, extent(c))
					}
				} else {
					sumUngrouped += root.DurMs
					selfTotal += selfMs(root)
				}
				root.Walk(func(s *obs.Span) {
					if slices.Contains(simPhases, s.Name) {
						phaseIvs = append(phaseIvs, extent(s))
						phaseSum[s.Name] += s.DurMs
					}
				})
			}
		}
		// Simulating jobs of one campaign are dispatched as one group
		// whose job spans open and close together, so their trees share
		// a timeline. The group's self time is the union of its job
		// spans minus the union of their children, and the union of its
		// phase spans is its simulation time (batched replicas
		// interleave on one worker, so their phase spans overlap),
		// split by each phase's share of span time.
		selfTotal += max(0, unionLen(groupRoots)-unionLen(groupKids))
		simMs, spanSum := unionLen(phaseIvs), 0.0
		for _, v := range phaseSum {
			spanSum += v
		}
		if phaseByGrid[grid] == nil {
			phaseByGrid[grid] = map[string]float64{}
		}
		for ph, v := range phaseSum {
			phaseMs[ph] += simMs * v / spanSum
			phaseByGrid[grid][ph] += simMs * v / spanSum
		}
		// The union of a campaign's job spans is at least its longest
		// span and, for ungrouped jobs (at most `workers` at once), at
		// least their sum over workers.
		serverMs += ms(q + e)
		coveredMs += ms(q) + min(ms(e), max(maxJob, sumUngrouped/workers))
	}

	m["serve.submit_ms"] = mean(submit)
	m["serve.queue_ms"] = mean(queue)
	m["serve.result_ms"] = mean(fetch)
	m["serve.overhead_ms"] = mean(overhead)

	busy := delta("sh_runner_busy_seconds_total")
	m["exp.busy_s"] = busy
	m["exp.pool_util"] = ratio(busy, workers*wall.Seconds())
	m["exp.jobs_per_group"] = ratio(delta("sh_runner_grouped_jobs_total"), delta("sh_runner_groups_total"))
	hits, misses := delta("sh_cache_hits_total"), delta("sh_cache_misses_total")
	m["exp.cache_hit_ratio"] = ratio(hits, hits+misses)

	m["noc.job_self_ms"] = ratio(selfTotal, float64(jobs))
	m["phys.cost_s"] = spans["cost"] / 1e3
	m["sim.build_reduction_x"] = ratio(delta("sh_sim_builds_total"), delta("sh_sim_shape_builds_total"))
	m["sim.zeroload_s"] = spans["zeroload"] / 1e3
	m["sim.probe_s"] = spans["probe"] / 1e3
	m["sim.probes_per_job"] = ratio(float64(work.probes), float64(work.predictJobs))
	spec := delta("sh_sim_probes_speculated_total")
	m["sim.spec_useful_ratio"] = ratio(spec-delta("sh_sim_probes_canceled_total"), spec)
	m["sim.cycles_saved"] = float64(work.saved)

	totalPhaseMs := 0.0
	for _, ph := range simPhases {
		m["sim."+ph+"_s"] = phaseMs[ph] / 1e3
		totalPhaseMs += phaseMs[ph]
	}
	m["sim.ns_per_flit_hop"] = ratio(totalPhaseMs*1e6, float64(work.flitHops))
	for _, g := range gridClasses {
		total := 0.0
		for _, ph := range simPhases {
			v := ratio(phaseByGrid[g][ph]*1e6, float64(hopsByGrid[g]))
			m["sim.ns_per_flit_hop."+g+"."+ph] = v
			total += v
		}
		m["sim.ns_per_flit_hop."+g] = total
	}
	m["sim.runs"] = float64(work.runs)
	m["sim.cycles"] = float64(work.cycles)
	m["sim.flit_hops"] = float64(work.flitHops)
	m["sim.runs_executed"] = delta("sh_sim_runs_total")
	m["obs.unattributed_pct"] = 100 * (1 - ratio(coveredMs, serverMs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
