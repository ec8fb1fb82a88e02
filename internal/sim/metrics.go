package sim

// This file implements the two performance estimates the toolchain
// reports (Figure 3): zero-load latency and saturation throughput.
//
// The saturation search is one bisection over the offered load,
// anchored by a zero-load reference run. Its probes (adaptive.go)
// come in two tiers. With a nil Config.Control every probe burns its
// full Warmup+Measure(+clamped Drain) schedule and the probes run
// strictly one after another — the fixed tier, kept bit-identical
// across releases because the pinned evaluation artifacts depend on
// it. With Config.Control set, every probe runs under early-verdict
// monitors (saturated probes stop in a small fraction of their
// budget, stable probes stop once their latency confidence interval
// converges) and, when Config.Sched provides spare worker slots, the
// search speculatively issues the next bisection probes for both
// possible outcomes of the one in flight, canceling the probe the
// verdict makes irrelevant. Speculation is wall-clock-only: the
// probes whose verdicts the search consumes are exactly the
// sequential bisection sequence, so the result — including its
// SimCycles accounting — is deterministic whether or not any
// speculation happened.

import (
	"fmt"
	"sync"
)

// ZeroLoadLatency measures the average packet latency at a very low
// injection rate (0.5% of capacity), where queueing is negligible and
// the latency reflects hop counts, router pipelines, link pipelining,
// and serialization only.
func ZeroLoadLatency(cfg Config) (float64, error) {
	st, err := zeroLoad(nil, cfg)
	if err != nil {
		return 0, err
	}
	return st.AvgPacketLatency, nil
}

// runShaped builds and runs one configuration, instantiating from the
// shared shape when one is supplied (nil falls back to a full build).
func runShaped(sh *Shape, cfg Config) (Stats, error) {
	if sh == nil {
		return RunConfig(cfg)
	}
	s, err := sh.Instantiate(cfg)
	if err != nil {
		return Stats{}, err
	}
	return s.Run(), nil
}

// zeroLoadMeasureFloor is the minimum measurement window of the
// zero-load reference run: at 0.5% load, shorter windows see too few
// packets for a stable latency average.
const zeroLoadMeasureFloor = 20000

// zeroLoad runs the near-zero-load reference configuration and
// returns its full statistics. A Control carries over (with the
// saturation monitors inert at this load, only the steady-state
// stopping rule applies).
func zeroLoad(sh *Shape, cfg Config) (Stats, error) {
	cfg.Defaults()
	cfg.InjectionRate = 0.005
	cfg.Warmup = 1000
	if cfg.Measure < zeroLoadMeasureFloor {
		cfg.Measure = zeroLoadMeasureFloor
	}
	return runShaped(sh, cfg)
}

// ZeroLoadScheduleKey returns the effective measurement window of the
// zero-load reference run for a configured Measure value. Two
// saturation searches over the same shape whose configs agree on
// traffic pattern, seed, and this key execute bit-identical zero-load
// reference runs, so they may share one ZeroLoadAnchor.
func ZeroLoadScheduleKey(measure int) int {
	if measure < zeroLoadMeasureFloor {
		return zeroLoadMeasureFloor
	}
	return measure
}

// ZeroLoadAnchor memoizes the zero-load reference run that anchors a
// saturation search's latency-blowup threshold, so sibling searches
// with identical zero-load schedules (see ZeroLoadScheduleKey) pay
// for it once. The toolchain's shape memo shares one anchor across
// the quality tiers of a topology. The zero value is an empty anchor;
// the first search fills it, later searches reuse the memoized Stats
// verbatim — results stay bit-identical because every consumer would
// have computed exactly this run. An anchor is safe for concurrent
// searches: one runs the reference while the others wait for it.
type ZeroLoadAnchor struct {
	mu    sync.Mutex
	valid bool
	stats Stats
}

// anchoredZeroLoad returns the memoized zero-load reference run, or
// executes and memoizes it. A nil anchor always executes.
func anchoredZeroLoad(sh *Shape, cfg Config, a *ZeroLoadAnchor) (Stats, error) {
	if a == nil {
		return zeroLoad(sh, cfg)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.valid {
		counters.anchorReuses.Add(1)
		return a.stats, nil
	}
	st, err := zeroLoad(sh, cfg)
	if err == nil {
		a.stats, a.valid = st, true
	}
	return st, err
}

// SaturationResult reports the outcome of a saturation search.
type SaturationResult struct {
	// SaturationRate is the highest offered load (flits/node/cycle, in
	// [0,1]) the network sustains: delivery stays complete and average
	// latency stays below the latency threshold. When LowerBound is
	// set it is instead the search's Resolution — an upper bound on a
	// true rate the bisection could not resolve.
	SaturationRate float64
	// ZeroLoadLatency is the reference latency used for the threshold.
	ZeroLoadLatency float64
	// Samples holds the load/latency curve probed by the search.
	Samples []Stats
	// SimCycles and SimFlitHops total the simulated router-cycles and
	// flit movements over the zero-load reference run and every probe.
	// They are the work figures behind the search: perf harnesses
	// divide them by wall-clock time to report simulation speed.
	SimCycles   int64
	SimFlitHops int64

	// Probes counts the saturation probes whose verdicts the search
	// used (the zero-load reference run is not a probe). Speculative
	// probes canceled or discarded before their verdict was needed are
	// excluded, which keeps the count — like every other field —
	// deterministic in the configuration.
	Probes int

	// CyclesSaved conservatively estimates the simulated cycles the
	// adaptive controller avoided: for each probe, the gap between its
	// fixed injection schedule (warmup plus measurement; avoided drain
	// cycles are not counted) and the cycles it actually ran. Zero for
	// fixed-budget searches.
	CyclesSaved int64

	// Resolution is the finest offered-load step the bisection could
	// resolve (the final search-interval width); 0 when the network
	// sustained full load and no bisection ran.
	Resolution float64

	// LowerBound reports that every probe down to the smallest
	// bisection midpoint saturated: the true saturation rate lies
	// below Resolution, and SaturationRate carries Resolution as an
	// explicit upper bound instead of a hard zero.
	LowerBound bool
}

// latencyBlowupFactor defines saturation: the offered load at which
// average latency exceeds this multiple of the zero-load latency
// (standard practice for load-latency curves; BookSim evaluations
// typically use 2-3x).
const latencyBlowupFactor = 3.0

// bisectionSteps is the number of interval halvings after the
// full-load probe, fixing the search resolution at 2^-bisectionSteps
// of capacity.
const bisectionSteps = 7

// clampDrain caps a run's drain budget at factor*Measure: runs past
// saturation never finish draining, so there is no point paying the
// full default drain. The saturation search's probes use 4x and
// load-sweep points their historical 3x — both factors are pinned
// because changing either would alter fixed-tier results already
// cached under existing job keys.
func clampDrain(c *Config, factor int) {
	if c.Drain > factor*c.Measure {
		c.Drain = factor * c.Measure
	}
}

// Drain clamp factors (see clampDrain).
const (
	probeDrainFactor = 4
	curveDrainFactor = 3
)

// satVerdict applies the saturation criterion to a finished probe: an
// early saturation verdict from the adaptive monitors, or the classic
// whole-run thresholds for runs that completed their budget.
func satVerdict(st Stats, zl, rate float64) bool {
	return st.Verdict == VerdictSaturated ||
		st.Deadlocked ||
		st.DeliveredFraction() < 0.95 ||
		st.AvgPacketLatency > latencyBlowupFactor*zl ||
		st.AcceptedRate < 0.85*rate
}

// SaturationThroughput binary-searches the offered load for the
// saturation point. The passed config's InjectionRate is ignored.
// With Config.Control set the search runs on the adaptive tier (early
// verdicts, steady-state stopping, speculative parallel bisection over
// Config.Sched); see the file comment.
func SaturationThroughput(cfg Config) (SaturationResult, error) {
	cfg.Defaults()
	// One shared Shape serves the zero-load reference and every probe:
	// a search used to pay up to nine full topology builds, now one.
	sh, err := NewShape(cfg)
	if err != nil {
		return SaturationResult{}, err
	}
	return SaturationThroughputAnchored(sh, cfg, nil)
}

// SaturationThroughputAnchored is SaturationThroughput against a
// pre-built Shape, letting callers that search many configurations of
// the same topology (the toolchain's shape memo) share one build
// across all of them, with an optional shared zero-load anchor. The
// shape must have been built for the config's topology, routing, and
// link latencies. A non-nil anchor supplies the search's zero-load
// reference run (filling it on first use) instead of always
// simulating one. Callers must only share an anchor between searches
// whose zero-load schedules coincide — same shape, traffic pattern,
// seed, and ZeroLoadScheduleKey — in which case the result, including
// its SimCycles accounting, is bit-identical to SaturationThroughput.
func SaturationThroughputAnchored(sh *Shape, cfg Config, anchor *ZeroLoadAnchor) (SaturationResult, error) {
	cfg.Defaults()
	if _, ok := cfg.Pattern.(*Replay); ok {
		// The search probes by varying the Bernoulli injection rate,
		// which a recorded workload has no analogue of; for replays the
		// rate is a time-dilation scale swept via LoadLatencyCurve.
		return SaturationResult{}, fmt.Errorf(
			"sim: saturation search is undefined for trace replay pattern %q (sweep it with LoadLatencyCurve / mode \"load\")",
			cfg.Pattern.Name())
	}
	p := newProber(sh, cfg)
	defer p.cancelExcept(-1) // no speculative probe outlives the search

	// Zero-load reference run, on the exact fixed schedule on both
	// tiers: it is cheap (almost no flits move at 0.5% load), it is the
	// headline ZeroLoadLatency, and — decisively — it anchors the 3x
	// blowup threshold every probe's verdict compares against, so
	// estimating it adaptively would let sampling noise shift all
	// verdicts at once. Pinning it keeps the adaptive search's
	// saturation answer in lockstep with the fixed-budget search, and
	// lets the tiers share one anchor.
	zc := p.cfg
	zc.Span = p.span.Child("zeroload")
	zlStats, err := anchoredZeroLoad(sh, zc, anchor)
	zc.Span.End()
	if err != nil {
		return SaturationResult{}, err
	}
	p.zl = zlStats.AvgPacketLatency
	res := SaturationResult{
		ZeroLoadLatency: p.zl,
		SimCycles:       zlStats.Cycles,
		SimFlitHops:     zlStats.FlitHops,
	}

	lo, hi := 0.0, 1.0
	// Establish whether full load already saturates (it almost always
	// does except for near-ideal networks), speculating meanwhile on
	// that outcome: the first midpoint.
	p.speculate(0.5)
	sat, err := p.probe(&res, 1.0)
	if err != nil {
		return res, err
	}
	if !sat {
		res.SaturationRate = 1.0
		return res, nil
	}
	for i := 0; i < bisectionSteps; i++ {
		mid := (lo + hi) / 2
		if i < bisectionSteps-1 {
			// Speculate the next midpoint for both possible verdicts
			// of the probe at mid.
			p.speculate((lo + mid) / 2)
			p.speculate((mid + hi) / 2)
		}
		sat, err := p.probe(&res, mid)
		if err != nil {
			return res, err
		}
		if sat {
			hi = mid
			p.cancelExcept((lo + mid) / 2)
		} else {
			lo = mid
			p.cancelExcept((mid + hi) / 2)
		}
	}
	finishSearch(&res, lo, hi)
	return res, nil
}

// finishSearch fills the search outcome from the final bisection
// interval, turning the all-probes-saturated case into an explicit
// lower-bound report instead of a hard zero.
func finishSearch(res *SaturationResult, lo, hi float64) {
	res.Resolution = hi - lo
	if lo == 0 {
		// Even the smallest midpoint saturated: the true rate is
		// somewhere below the resolution.
		res.LowerBound = true
		res.SaturationRate = res.Resolution
		return
	}
	res.SaturationRate = lo
}

// LoadLatencyCurve sweeps the offered load over the given rates and
// returns one Stats per point — the classic load-latency curve NoC
// papers plot around their saturation discussions. Saturated points
// (incomplete delivery) are included; callers can filter on
// DeliveredFraction. Points share the saturation search's drain
// clamp mechanism (at the curve's historical factor), so sweep
// points above saturation do not pay the full drain budget.
//
// Every point is a replica of one Shape, run one after another: sh
// when non-nil (it must match the config, as for Instantiate),
// otherwise one built from cfg. Each point runs under a "point" child
// of cfg.Span.
func LoadLatencyCurve(sh *Shape, cfg Config, rates []float64) ([]Stats, error) {
	cfg.Defaults()
	if len(rates) == 0 {
		return nil, nil
	}
	if sh == nil {
		var err error
		if sh, err = NewShape(cfg); err != nil {
			return nil, err
		}
	}
	out := make([]Stats, len(rates))
	for i, r := range rates {
		c := cfg
		c.InjectionRate = r
		clampDrain(&c, curveDrainFactor)
		c.Span = cfg.Span.Child("point")
		c.Span.SetAttr("rate", r)
		s, err := sh.Instantiate(c)
		if err != nil {
			c.Span.End()
			return nil, err
		}
		out[i] = s.Run()
		c.Span.End()
	}
	return out, nil
}
