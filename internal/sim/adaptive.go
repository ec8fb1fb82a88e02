package sim

// Saturation probes: the runs behind the bisection in metrics.go. On
// the adaptive tier each probe runs under early-verdict monitors, and
// spare scheduler slots run speculative probes ahead of the search.
// See the file comment in metrics.go for the determinism argument;
// the short version is that the search consumes exactly the
// sequential bisection's probe sequence, and speculation only changes
// when those probes execute, never which ones count.

import (
	"fmt"

	"sparsehamming/internal/obs"
)

// specProbe is one speculatively launched probe.
type specProbe struct {
	rate float64
	// interrupt is closed to abandon the probe once a completed
	// sibling's verdict makes it irrelevant.
	interrupt chan struct{}
	// done receives the probe's outcome (buffered, so abandoned
	// probes never leak a goroutine).
	done chan probeOutcome
	// span is the probe's trace subtree, forked (detached) from the
	// search span: the probe goroutine mutates only this subtree, and
	// eval adopts it into the search trace if and when the outcome is
	// consumed. Canceled probes' spans are simply never attached, so a
	// goroutine that is still winding down cannot race a published
	// trace.
	span *obs.Span
}

// probeOutcome is one finished probe.
type probeOutcome struct {
	st   Stats
	err  error
	span *obs.Span // the probe's trace span (nil when untraced)
}

// prober runs the saturation probes of one search, managing the
// speculation table.
type prober struct {
	cfg Config // base config (Defaults applied; Control and Span cleared)
	sh  *Shape // shared build products; read-only, so concurrent speculative probes instantiate from it safely
	// ctl is the adaptive tier's per-probe controller template
	// (defaults applied); nil on the fixed tier, whose probes run
	// their whole schedule and are never speculated.
	ctl     *Control
	zl      float64 // zero-load reference latency
	span    *obs.Span
	pending map[float64]*specProbe
}

// newProber sets up the probes of one search of cfg over sh: on the
// adaptive tier when cfg.Control is set, on the fixed tier otherwise.
func newProber(sh *Shape, cfg Config) *prober {
	p := &prober{
		cfg:     cfg,
		sh:      sh,
		span:    cfg.Span,
		pending: map[float64]*specProbe{},
	}
	if cfg.Control != nil {
		ctl := cfg.Control.withDefaults()
		p.ctl = &ctl
	}
	p.cfg.Control = nil // probes attach their own per-probe controller
	p.cfg.Span = nil    // probes attach their own per-probe span
	return p
}

// run executes one probe at rate synchronously on the calling
// goroutine, tracing it under span. interrupt and span may be nil.
func (p *prober) run(rate float64, interrupt <-chan struct{}, span *obs.Span) probeOutcome {
	c := p.cfg
	c.InjectionRate = rate
	c.Span = span
	span.SetAttr("rate", rate)
	clampDrain(&c, probeDrainFactor)
	if p.ctl != nil {
		ctl := *p.ctl
		ctl.LatencyRef = p.zl
		ctl.DecideLatency = latencyBlowupFactor * p.zl
		ctl.Interrupt = interrupt
		c.Control = &ctl
	}
	st, err := runShaped(p.sh, c)
	span.End()
	return probeOutcome{st: st, err: err, span: span}
}

// speculate launches a probe at rate on a borrowed scheduler slot, if
// one is free and the rate is not already in flight. Without a
// scheduler (or capacity) it does nothing: the search then evaluates
// the rate inline when — and only if — its verdict is needed. The
// fixed tier never speculates: canceling a probe the search no longer
// needs takes the adaptive monitors' interrupt polling.
func (p *prober) speculate(rate float64) {
	if p.ctl == nil || p.cfg.Sched == nil {
		return
	}
	if _, ok := p.pending[rate]; ok {
		return
	}
	sp := &specProbe{
		rate:      rate,
		interrupt: make(chan struct{}),
		done:      make(chan probeOutcome, 1),
		span:      p.span.Fork("probe"),
	}
	sp.span.SetAttr("speculative", true)
	started := p.cfg.Sched.TryGo(func() {
		sp.done <- p.runContained(rate, sp.interrupt, sp.span)
	})
	if started {
		counters.probesSpeculated.Add(1)
		p.pending[rate] = sp
	}
}

// runContained is run on a speculative probe's own goroutine, where
// no caller's recover is on the stack: a panic there would take down
// the whole process. It becomes the probe's outcome error instead, so
// only the search that consumes the outcome fails (and a canceled
// probe's panic is discarded with its outcome).
func (p *prober) runContained(rate float64, interrupt <-chan struct{}, span *obs.Span) (out probeOutcome) {
	defer func() {
		if r := recover(); r != nil {
			span.SetAttr("panic", fmt.Sprint(r))
			span.End()
			out = probeOutcome{err: fmt.Errorf("sim: speculative probe at rate %g panicked: %v", rate, r)}
		}
	}()
	return p.run(rate, interrupt, span)
}

// eval returns the outcome of the probe at rate: the in-flight
// speculative run when one exists, an inline run otherwise. A
// consumed speculative probe's trace subtree is adopted into the
// search span here, on the search goroutine.
func (p *prober) eval(rate float64) probeOutcome {
	if sp, ok := p.pending[rate]; ok {
		delete(p.pending, rate)
		out := <-sp.done
		if out.err == nil && out.st.Verdict == VerdictInterrupted {
			// Canceled before we needed it after all (interrupt and
			// demand raced); rerun inline for the deterministic
			// outcome.
			counters.probesCanceled.Add(1)
			return p.run(rate, nil, p.span.Child("probe"))
		}
		p.span.Adopt(sp.span)
		return out
	}
	return p.run(rate, nil, p.span.Child("probe"))
}

// cancelExcept interrupts every pending speculative probe but the one
// at keep. The canceled probes' goroutines observe the interrupt at
// their next monitor window, release their slots, and their outcomes
// are discarded — they never enter the result (nor the trace: their
// detached spans are never adopted).
func (p *prober) cancelExcept(keep float64) {
	for rate, sp := range p.pending {
		if rate == keep {
			continue
		}
		close(sp.interrupt)
		counters.probesCanceled.Add(1)
		delete(p.pending, rate)
	}
}

// budgetCap returns the fixed injection schedule (warmup plus
// measurement) a probe was capped at. Savings are accounted against
// this, not against the drain budget — a fixed-budget run's drain
// length depends on how fast its backlog clears, so counting avoided
// drain would overstate. The estimate is therefore conservative.
func (p *prober) budgetCap() int64 {
	return int64(p.cfg.Warmup + p.cfg.Measure)
}

// probe evaluates the probe at rate and folds it into res: its work
// always, its Stats and — on the adaptive tier — its cycles saved when
// it succeeded. It returns the probe's saturation verdict.
func (p *prober) probe(res *SaturationResult, rate float64) (bool, error) {
	out := p.eval(rate)
	res.SimCycles += out.st.Cycles
	res.SimFlitHops += out.st.FlitHops
	res.Probes++
	if out.err != nil {
		return false, out.err
	}
	sat := satVerdict(out.st, p.zl, rate)
	out.span.SetAttr("saturated", sat)
	res.Samples = append(res.Samples, out.st)
	if saved := p.budgetCap() - out.st.Cycles; p.ctl != nil && saved > 0 {
		res.CyclesSaved += saved
		counters.cyclesSaved.Add(saved)
	}
	return sat, nil
}
