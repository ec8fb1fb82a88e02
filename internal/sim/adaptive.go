package sim

// Saturation probes: the runs behind the bisection in metrics.go. On
// the adaptive tier each probe runs under early-verdict monitors. Every
// probe runs inline on the searching goroutine, in bisection order.

import "sparsehamming/internal/obs"

// prober runs the saturation probes of one search.
type prober struct {
	cfg Config // base config (Defaults applied; Control and Span cleared)
	sh  *Shape // shared build products
	// ctl is the adaptive tier's per-probe controller template
	// (defaults applied); nil on the fixed tier, whose probes run
	// their whole schedule.
	ctl  *Control
	zl   float64 // zero-load reference latency
	span *obs.Span
}

// newProber sets up the probes of one search of cfg over sh: on the
// adaptive tier when cfg.Control is set, on the fixed tier otherwise.
func newProber(sh *Shape, cfg Config) *prober {
	p := &prober{cfg: cfg, sh: sh, span: cfg.Span}
	if cfg.Control != nil {
		ctl := cfg.Control.withDefaults()
		p.ctl = &ctl
	}
	p.cfg.Control = nil // probes attach their own per-probe controller
	p.cfg.Span = nil    // probes attach their own per-probe span
	return p
}

// budgetCap returns the fixed injection schedule (warmup plus
// measurement) a probe was capped at. Savings are accounted against
// this, not against the drain budget — a fixed-budget run's drain
// length depends on how fast its backlog clears, so counting avoided
// drain would overstate. The estimate is therefore conservative.
func (p *prober) budgetCap() int64 {
	return int64(p.cfg.Warmup + p.cfg.Measure)
}

// probe runs the probe at rate on the calling goroutine, traced under
// a "probe" child of the search span, and folds it into res: its work
// always, its Stats and — on the adaptive tier — its cycles saved when
// it succeeded. It returns the probe's saturation verdict.
func (p *prober) probe(res *SaturationResult, rate float64) (bool, error) {
	span := p.span.Child("probe")
	c := p.cfg
	c.InjectionRate = rate
	c.Span = span
	span.SetAttr("rate", rate)
	clampDrain(&c, probeDrainFactor)
	if p.ctl != nil {
		ctl := *p.ctl
		ctl.LatencyRef = p.zl
		ctl.DecideLatency = latencyBlowupFactor * p.zl
		c.Control = &ctl
	}
	st, err := runShaped(p.sh, c)
	span.End()
	res.SimCycles += st.Cycles
	res.SimFlitHops += st.FlitHops
	res.Probes++
	if err != nil {
		return false, err
	}
	sat := satVerdict(st, p.zl, rate)
	span.SetAttr("saturated", sat)
	res.Samples = append(res.Samples, st)
	if saved := p.budgetCap() - st.Cycles; p.ctl != nil && saved > 0 {
		res.CyclesSaved += saved
		counters.cyclesSaved.Add(saved)
	}
	return sat, nil
}
