package noc

// This file bridges the prediction toolchain to the observability
// layer (package obs): NewObservedRunner wraps the campaign runner so
// every job records an execution-trace span tree, per-phase duration
// histograms, and a slow-job log line, and it registers scrape-time
// collectors over the simulator's run-boundary counters, the runner's
// batch statistics, and the cache. The instrumentation is wall-clock
// observability only — job results are bit-identical with or without
// a hub, which is what keeps cached results sound.

import (
	"time"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/obs"
	"sparsehamming/internal/sim"
)

// phaseNames are the span names folded into the per-phase duration
// histogram (sh_sim_phase_seconds).
var phaseNames = map[string]bool{
	"cost":       true,
	"saturation": true,
	"zeroload":   true,
	"probe":      true,
	"warmup":     true,
	"measure":    true,
	"drain":      true,
}

// NewObservedRunner is NewRunner with an observability hub attached:
// each evaluated job records a span tree (job → saturation → probes →
// warmup/measure/drain) into the hub's trace store under the job's
// content key, feeds the per-phase duration histograms, and jobs
// slower than the hub's slow-job threshold are logged with their
// probe count. The hub's registry gains scrape-time collectors for
// the simulator, runner, and cache series. A nil hub degrades to the
// uninstrumented NewRunner.
func NewObservedRunner(workers int, cache *exp.Cache, hub *obs.Hub) *exp.Runner {
	r := &exp.Runner{Workers: workers, Cache: cache}
	sched := runnerSched{r: r}
	// The runner owns one shape memo: jobs sharing a topology build —
	// a load sweep's points, a topology's tiers, patterns, and seeds —
	// share its Shape and zero-load anchors, instrumented or not, since
	// sharing changes wall-clock only, never results.
	memo := newShapeMemo()
	if hub == nil {
		r.Eval = func(j exp.Job) (*exp.Result, error) { return evalJobSched(j, sched, nil, memo) }
		return r
	}
	r.Log = hub.Logger()
	ob := &jobObserver{
		hub: hub,
		phases: hub.Metrics.HistogramVec("sh_sim_phase_seconds",
			"Wall-clock duration of simulation phases and probes, by span name.",
			obs.DefBuckets, "phase"),
	}
	r.Eval = func(j exp.Job) (*exp.Result, error) {
		span := ob.begin(j)
		res, err := evalJobSched(j, sched, span, memo)
		ob.finish(j, span, err)
		return res, err
	}
	RegisterMetrics(hub.Metrics, r, cache)
	return r
}

// jobObserver records one evaluated job's execution trace and derived
// telemetry: begin opens the job span, finish closes it, feeds the
// per-phase duration histograms, stores the trace under the job's
// content key, and logs slow jobs.
type jobObserver struct {
	hub    *obs.Hub
	phases *obs.HistogramVec
}

// begin opens the span tree for one job evaluation.
func (o *jobObserver) begin(j exp.Job) *obs.Span {
	span := obs.NewSpan("job")
	span.SetAttr("mode", string(j.Mode))
	span.SetAttr("topo", j.Topo)
	if j.Quality != "" {
		span.SetAttr("quality", j.Quality)
	}
	return span
}

// finish closes a job span and publishes its telemetry.
func (o *jobObserver) finish(j exp.Job, span *obs.Span, err error) {
	span.End()
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	probes := 0
	span.Walk(func(s *obs.Span) {
		if phaseNames[s.Name] {
			o.phases.With(s.Name).Observe(float64(s.DurMs) / 1000)
		}
		if s.Name == "probe" {
			probes++
		}
	})
	o.hub.Traces.Put(j.Key(), span)
	if d := span.Duration(); d > o.hub.SlowJobThreshold() {
		o.hub.Logger().Warn("slow job",
			"job", j.String(), "elapsed", d.Round(time.Millisecond),
			"probes", probes)
	}
}

// RegisterMetrics installs scrape-time collectors for the simulator's
// process-wide counters, the runner's batch statistics, and the cache
// onto the registry. NewObservedRunner calls it; CLIs that build a
// plain NewRunner call it directly when only a -metrics dump is
// wanted. Runner and cache may be nil (their series are skipped).
func RegisterMetrics(m *obs.Registry, r *exp.Runner, cache *exp.Cache) {
	m.CounterFunc("sh_sim_runs_total",
		"Completed simulation runs (probes and zero-load references included).",
		func() float64 { return float64(sim.Counters().Runs) })
	m.CounterFunc("sh_sim_cycles_total",
		"Simulated router-cycles across all runs.",
		func() float64 { return float64(sim.Counters().Cycles) })
	m.CounterFunc("sh_sim_flit_hops_total",
		"Flit movements through crossbars across all runs.",
		func() float64 { return float64(sim.Counters().FlitHops) })
	m.CounterFunc("sh_sim_deadlocks_total",
		"Runs the watchdog declared deadlocked.",
		func() float64 { return float64(sim.Counters().Deadlocks) })
	m.CounterFunc("sh_sim_cycles_saved_total",
		"Simulated cycles avoided by adaptive control versus the fixed schedule.",
		func() float64 { return float64(sim.Counters().CyclesSaved) })
	m.CounterFunc("sh_sim_probes_speculated_total",
		"Saturation probes launched speculatively on borrowed worker slots.",
		func() float64 { return float64(sim.Counters().ProbesSpeculated) })
	m.CounterFunc("sh_sim_probes_canceled_total",
		"Speculative probes abandoned because a sibling's verdict made them irrelevant.",
		func() float64 { return float64(sim.Counters().ProbesCanceled) })
	m.CounterFunc("sh_sim_shape_builds_total",
		"Shared topology builds (channel wiring + output-port LUT); sh_sim_builds_total / this is the build amortization of shape sharing.",
		func() float64 { return float64(sim.Counters().ShapeBuilds) })
	m.CounterFunc("sh_sim_builds_total",
		"Simulator replica instantiations (each used to pay a full topology build).",
		func() float64 { return float64(sim.Counters().SimBuilds) })
	m.Func("sh_sim_verdicts_total",
		"Completed simulation runs by how they ended.",
		obs.KindCounter, []string{"verdict"}, func() []obs.Sample {
			c := sim.Counters()
			return []obs.Sample{
				{Labels: []string{"none"}, Value: float64(c.VerdictsNone)},
				{Labels: []string{"saturated"}, Value: float64(c.VerdictsSaturated)},
				{Labels: []string{"stable"}, Value: float64(c.VerdictsStable)},
				{Labels: []string{"interrupted"}, Value: float64(c.VerdictsInterrupted)},
			}
		})

	if r != nil {
		m.CounterFunc("sh_runner_batches_total",
			"Completed campaign batches (Run calls).",
			func() float64 { return float64(r.Stats().Batches) })
		m.Func("sh_runner_jobs_total",
			"Unique jobs of completed batches, by how they were answered.",
			obs.KindCounter, []string{"outcome"}, func() []obs.Sample {
				s := r.Stats()
				return []obs.Sample{
					{Labels: []string{"computed"}, Value: float64(s.Computed)},
					{Labels: []string{"cached"}, Value: float64(s.Cached)},
					{Labels: []string{"shared"}, Value: float64(s.Shared)},
					{Labels: []string{"failed"}, Value: float64(s.Failed)},
				}
			})
		m.CounterFunc("sh_runner_busy_seconds_total",
			"Evaluation wall-time summed across workers.",
			func() float64 { return float64(r.Stats().BusyNanos) / 1e9 })
		m.CounterFunc("sh_runner_panics_total",
			"Job evaluations that panicked (each failed only its own job).",
			func() float64 { return float64(r.Stats().Panics) })
		m.GaugeFunc("sh_runner_evals_in_flight",
			"Evaluation slots currently held (including borrowed probe slots).",
			func() float64 { return float64(r.Stats().InFlight) })
		m.GaugeFunc("sh_runner_waiting_jobs",
			"Goroutines currently blocked waiting for an evaluation slot.",
			func() float64 { return float64(r.Stats().Waiting) })
		m.GaugeFunc("sh_runner_workers",
			"Effective evaluation-slot pool size.",
			func() float64 { return float64(r.Stats().Workers) })
	}

	if cache != nil {
		m.GaugeFunc("sh_cache_entries",
			"Results currently in the job cache.",
			func() float64 { return float64(cache.Len()) })
		m.CounterFunc("sh_cache_hits_total",
			"Job-cache lookups answered from the cache.",
			func() float64 { h, _ := cache.Stats(); return float64(h) })
		m.CounterFunc("sh_cache_misses_total",
			"Job-cache lookups that missed.",
			func() float64 { _, mi := cache.Stats(); return float64(mi) })
	}
}
