package sim

import "sync/atomic"

// Process-wide simulation counters, updated only at run and search
// boundaries — never inside the per-cycle hot path, which stays
// allocation- and contention-free. The noc layer exposes them through
// the obs metric registry; Counters returns a consistent-enough
// snapshot for scraping (each field is individually atomic).
var counters struct {
	runs      atomic.Int64
	cycles    atomic.Int64
	flitHops  atomic.Int64
	deadlocks atomic.Int64

	verdictNone        atomic.Int64
	verdictSaturated   atomic.Int64
	verdictStable      atomic.Int64
	verdictInterrupted atomic.Int64

	cyclesSaved      atomic.Int64
	probesSpeculated atomic.Int64
	probesCanceled   atomic.Int64

	shapeBuilds atomic.Int64
	simBuilds   atomic.Int64

	anchorReuses atomic.Int64
}

// CounterSnapshot is a point-in-time copy of the process-wide
// simulation counters (see Counters).
type CounterSnapshot struct {
	// Runs counts completed simulation runs (every RunConfig /
	// Simulator.Run, including probes and zero-load references).
	Runs int64
	// Cycles totals the simulated router-cycles over all runs.
	Cycles int64
	// FlitHops totals flit movements through crossbars over all runs.
	FlitHops int64
	// Deadlocks counts runs the watchdog declared deadlocked.
	Deadlocks int64

	// VerdictNone..VerdictsInterrupted count runs by how they ended
	// (see Verdict).
	VerdictsNone        int64
	VerdictsSaturated   int64
	VerdictsStable      int64
	VerdictsInterrupted int64

	// CyclesSaved totals the simulated cycles adaptive control avoided
	// versus the fixed injection schedule (see
	// SaturationResult.CyclesSaved).
	CyclesSaved int64
	// ProbesSpeculated counts saturation probes launched speculatively
	// on borrowed worker slots; ProbesCanceled counts those abandoned
	// because a sibling's verdict made them irrelevant.
	ProbesSpeculated int64
	ProbesCanceled   int64

	// ShapeBuilds counts shared topology builds (Shape constructions:
	// channel wiring + output-port LUT) and SimBuilds counts replica
	// instantiations; their ratio SimBuilds/ShapeBuilds is the
	// build-work amortization of shape sharing (every replica used to
	// pay a full shape build).
	ShapeBuilds int64
	SimBuilds   int64

	// AnchorReuses counts saturation searches that reused a shared
	// zero-load reference run (see ZeroLoadAnchor) instead of
	// simulating their own.
	AnchorReuses int64
}

// Counters returns a snapshot of the process-wide simulation counters.
func Counters() CounterSnapshot {
	return CounterSnapshot{
		Runs:                counters.runs.Load(),
		Cycles:              counters.cycles.Load(),
		FlitHops:            counters.flitHops.Load(),
		Deadlocks:           counters.deadlocks.Load(),
		VerdictsNone:        counters.verdictNone.Load(),
		VerdictsSaturated:   counters.verdictSaturated.Load(),
		VerdictsStable:      counters.verdictStable.Load(),
		VerdictsInterrupted: counters.verdictInterrupted.Load(),
		CyclesSaved:         counters.cyclesSaved.Load(),
		ProbesSpeculated:    counters.probesSpeculated.Load(),
		ProbesCanceled:      counters.probesCanceled.Load(),
		ShapeBuilds:         counters.shapeBuilds.Load(),
		SimBuilds:           counters.simBuilds.Load(),
		AnchorReuses:        counters.anchorReuses.Load(),
	}
}

// countRun folds one finished run into the process-wide counters.
// Called once at the end of Simulator.Run, outside the cycle loop.
func countRun(st *Stats) {
	counters.runs.Add(1)
	counters.cycles.Add(st.Cycles)
	counters.flitHops.Add(st.FlitHops)
	if st.Deadlocked {
		counters.deadlocks.Add(1)
	}
	switch st.Verdict {
	case VerdictSaturated:
		counters.verdictSaturated.Add(1)
	case VerdictStable:
		counters.verdictStable.Add(1)
	case VerdictInterrupted:
		counters.verdictInterrupted.Add(1)
	default:
		counters.verdictNone.Add(1)
	}
}
