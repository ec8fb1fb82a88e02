package sim

// Adaptive simulation control: windowed online monitors that end a
// run as soon as its outcome is decided, instead of always burning
// the full Warmup+Measure+Drain budget.
//
// Two verdicts can cut a run short:
//
//   - Saturated: the offered load exceeds what the network sustains.
//     The monitors watch, per window, the accepted-rate shortfall
//     against the offered load, the growth of the undelivered backlog
//     (source queues plus flits in flight), and the blowup of the
//     delivered-packet latency against a reference. Sustained
//     evidence over several consecutive windows is a proof of
//     saturation — queueing theory says a stable network's backlog is
//     stationary — so the run stops immediately. Saturated probes are
//     the majority of a saturation search's work and finish in a
//     small fraction of their fixed budget.
//
//   - Stable: the latency estimate has converged. The controller
//     keeps batch means of packet latency over measurement windows
//     and stops the measurement phase once the confidence interval's
//     relative half-width drops below the configured target (the
//     standard batch-means sequential stopping rule from the
//     simulation literature; BookSim applies the same idea to its
//     warmup/measurement methodology). The run then drains normally,
//     so delivered statistics stay unbiased.
//
// The fixed-budget path is untouched: a nil Config.Control runs the
// exact cycle schedule it always did, bit for bit.

import "math"

// Verdict classifies how a simulation run ended.
type Verdict int8

// Verdicts. VerdictNone is the fixed-budget outcome: the run executed
// its configured schedule (adaptive runs also return it when no
// monitor fired before the budget ran out).
const (
	// VerdictNone: the run completed its configured schedule.
	VerdictNone Verdict = iota
	// VerdictSaturated: the saturation monitors proved the offered
	// load unsustainable and the run stopped early.
	VerdictSaturated
	// VerdictStable: the latency confidence interval tightened below
	// the target and the measurement phase was truncated early.
	VerdictStable
	// VerdictInterrupted: the run was abandoned through
	// Control.Interrupt (speculative probes made irrelevant by a
	// sibling's verdict); its statistics are partial and must be
	// discarded.
	VerdictInterrupted
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictSaturated:
		return "saturated"
	case VerdictStable:
		return "stable"
	case VerdictInterrupted:
		return "interrupted"
	default:
		return "none"
	}
}

// Control enables adaptive simulation control. A nil Control on a
// Config preserves the fixed-budget schedule exactly; a non-nil one
// lets the run return early with a Verdict while keeping the
// configured Warmup/Measure/Drain as a hard cap. Zero fields take the
// defaults documented per field.
//
// Control never changes what a converged run measures — only how many
// cycles it takes to get there — and it is deliberately not part of
// any job identity: campaign cache keys hash the quality tier that
// selects it, not the controller's tuning.
type Control struct {
	// Window is the monitor window length in cycles (default 125).
	// All monitors update once per window, so adaptive control adds
	// no per-cycle work to the simulator hot path.
	Window int

	// WarmTolerance enables adaptive warmup termination (the
	// BookSim-style steady-state detection): once the per-window
	// latency and accepted-rate batch means of consecutive warmup
	// windows agree within this relative tolerance for WarmWindows
	// windows in a row, the network is declared warm and measurement
	// starts immediately instead of waiting out the full configured
	// Warmup (which stays the cap). 0 disables detection.
	WarmTolerance float64

	// WarmWindows is how many consecutive agreeing warmup windows
	// declare steady state (default 2, i.e. three mutually consistent
	// windows).
	WarmWindows int

	// SatWindows is how many consecutive saturated windows prove
	// saturation (default 4). Larger values are more conservative.
	SatWindows int

	// AcceptedFraction is the windowed accepted-rate floor: a window
	// is saturated only if the flits delivered per node per cycle
	// fall below AcceptedFraction times the offered rate while the
	// backlog grows (default 0.8). It is chosen stricter than the
	// fixed-budget saturation criterion (0.85 on the whole
	// measurement) so an early verdict implies the fixed one.
	AcceptedFraction float64

	// LatencyRef is the reference (zero-load) packet latency for the
	// latency-blowup monitor; 0 disables that monitor. Saturation
	// searches fill it from their zero-load run.
	LatencyRef float64

	// BlowupFactor is the windowed latency multiple of LatencyRef
	// that marks a saturated window (default 4, stricter than the
	// fixed criterion's 3x on the whole-run average).
	BlowupFactor float64

	// RelHalfWidth is the batch-means stopping target: measurement
	// ends early once the ~95% confidence interval of the mean packet
	// latency has a relative half-width below this (e.g. 0.02 for
	// ±2%). 0 disables steady-state stopping.
	RelHalfWidth float64

	// DecideLatency, when positive, enables the verdict-decided stop:
	// measurement also ends early once the latency confidence
	// interval's upper bound sits safely below this absolute threshold
	// while the accepted load tracks the offered load — the probe's
	// saturation verdict is then already decided, so measuring longer
	// only polishes a number nobody reads. Saturation searches set it
	// to their latency-blowup threshold.
	DecideLatency float64

	// MinBatches is the minimum number of measurement windows before
	// the stopping rule may fire (default 5; values below the viable
	// minimum of 2 take the default).
	MinBatches int

	// Interrupt, when non-nil, abandons the run (VerdictInterrupted)
	// as soon as the channel is closed, checked once per window. The
	// speculative saturation search closes it on probes whose outcome
	// a completed sibling has made irrelevant.
	Interrupt <-chan struct{}
}

// Control defaults.
const (
	defaultCtlWindow       = 125
	defaultCtlSatWindows   = 4
	defaultCtlAcceptedFrac = 0.8
	defaultCtlBlowupFactor = 4.0
	defaultCtlMinBatches   = 5
	defaultCtlWarmWindows  = 2
)

// withDefaults returns a copy with unset fields defaulted.
func (c Control) withDefaults() Control {
	if c.Window <= 0 {
		c.Window = defaultCtlWindow
	}
	if c.SatWindows <= 0 {
		c.SatWindows = defaultCtlSatWindows
	}
	if c.AcceptedFraction <= 0 {
		c.AcceptedFraction = defaultCtlAcceptedFrac
	}
	if c.BlowupFactor <= 0 {
		c.BlowupFactor = defaultCtlBlowupFactor
	}
	if c.MinBatches < 2 {
		c.MinBatches = defaultCtlMinBatches
	}
	if c.WarmWindows <= 0 {
		c.WarmWindows = defaultCtlWarmWindows
	}
	return c
}

// ProbeScheduler runs speculative saturation probes on borrowed
// worker slots. TryGo runs fn on another goroutine when a slot is
// free and returns true; false means no capacity is available and the
// caller proceeds sequentially. Implementations must release the slot
// when fn returns; they need no recover, since fn turns a panic in its
// probe into that probe's outcome error. The experiment-campaign
// runner (package exp) implements this over its shared
// evaluation-slot pool; the bridge lives in package noc so sim stays
// free of campaign dependencies.
type ProbeScheduler interface {
	// TryGo runs fn concurrently if capacity is free, returning
	// whether it did.
	TryGo(fn func()) bool
}

// ctlState is the per-run monitor state (allocated once per Run when
// Config.Control is set; the fixed-budget path never touches it).
type ctlState struct {
	cfg Control // defaults applied

	nextCheck int64 // cycle of the next window boundary

	// Per-window counters, reset at each boundary.
	winEjFlits int64 // flits ejected this window
	winLatSum  int64 // tail-latency sum over packets ejected this window
	winPkts    int64 // packets ejected this window

	prevBacklog int64 // source-queue flits + flits in flight, last window
	satStreak   int   // consecutive saturated windows

	// Warmup-termination state: last warmup window's batch means and
	// the agreement streak.
	warmLat    float64
	warmAcc    float64
	warmStreak int

	// done is set once a stable verdict truncated the measurement:
	// the monitors are finished, but interrupt polling must survive
	// through the drain so a canceled speculative probe still lets go
	// of its borrowed worker slot promptly.
	done bool

	// Batch means of packet latency and accepted rate over measurement
	// windows, for the steady-state and verdict-decided stopping
	// rules. Preallocated to the window count the measurement budget
	// admits.
	batches    []float64
	accBatches []float64

	verdict Verdict
}

// newCtlState builds the monitor state for one run.
func newCtlState(c Control, measure int) *ctlState {
	c = c.withDefaults()
	maxBatches := measure/c.Window + 1
	return &ctlState{
		cfg:        c,
		nextCheck:  int64(c.Window),
		batches:    make([]float64, 0, maxBatches),
		accBatches: make([]float64, 0, maxBatches),
	}
}

// backlog returns the undelivered work in the network: flits in
// flight plus the flits of every packet still waiting in a source
// queue. Growth of this figure across windows while the accepted rate
// trails the offered rate is the saturation signature.
func (s *Simulator) backlog() int64 {
	return s.flitsInFlight + s.eng.queued()*int64(s.cfg.PacketLen)
}

// controlCheck runs the per-window monitors at cycle t (a window
// boundary). It returns the verdict that should end or truncate the
// run, or VerdictNone to continue. Called only when Config.Control is
// set.
func (s *Simulator) controlCheck(t int64) Verdict {
	st := s.ctl
	c := &st.cfg
	st.nextCheck = t + int64(c.Window)

	if c.Interrupt != nil {
		select {
		case <-c.Interrupt:
			return VerdictInterrupted
		default:
		}
	}
	if st.done {
		return VerdictNone // monitors retired; only interrupt polling remains
	}

	// Adaptive warmup termination: consecutive warmup windows whose
	// latency and accepted-rate batch means agree within tolerance
	// mean the transient has died out; start measuring now instead of
	// waiting out the configured Warmup cap.
	if c.WarmTolerance > 0 && t < s.measureStart && st.winPkts > 0 {
		lat := float64(st.winLatSum) / float64(st.winPkts)
		acc := float64(st.winEjFlits) /
			(float64(c.Window) * float64(s.cfg.Topo.NumTiles()))
		if st.warmLat > 0 &&
			relWithin(lat, st.warmLat, c.WarmTolerance) &&
			relWithin(acc, st.warmAcc, c.WarmTolerance) {
			st.warmStreak++
		} else {
			st.warmStreak = 0
		}
		st.warmLat, st.warmAcc = lat, acc
		if st.warmStreak >= c.WarmWindows {
			s.measureStart = t
			s.measureEnd = t + int64(s.cfg.Measure)
		}
	}

	// Saturation monitors: only meaningful while injecting.
	injecting := t < s.measureEnd
	backlog := s.backlog()
	backlogGrew := backlog > st.prevBacklog
	if injecting {
		accepted := float64(st.winEjFlits) /
			(float64(c.Window) * float64(s.cfg.Topo.NumTiles()))
		shortfall := accepted < c.AcceptedFraction*s.cfg.InjectionRate
		blowup := false
		if c.LatencyRef > 0 && st.winPkts > 0 {
			winLat := float64(st.winLatSum) / float64(st.winPkts)
			blowup = winLat > c.BlowupFactor*c.LatencyRef
		}
		if backlogGrew && (shortfall || blowup) {
			st.satStreak++
		} else {
			st.satStreak = 0
		}
		if st.satStreak >= c.SatWindows {
			return VerdictSaturated
		}
	}
	st.prevBacklog = backlog

	// Steady-state stopping: batch means over measurement windows.
	// A window contributes a batch only when it lies entirely inside
	// the measurement phase and delivered at least one packet.
	if (c.RelHalfWidth > 0 || c.DecideLatency > 0) && injecting &&
		t-int64(c.Window) >= s.measureStart && st.winPkts > 0 {
		st.batches = append(st.batches, float64(st.winLatSum)/float64(st.winPkts))
		st.accBatches = append(st.accBatches,
			float64(st.winEjFlits)/(float64(c.Window)*float64(s.cfg.Topo.NumTiles())))
		// Both stopping rules demand a stationary backlog in the
		// current window: a borderline run just past saturation shows
		// slowly diverging latency that can look converged — or
		// decidedly below threshold — early on, while its backlog
		// growth gives the divergence away.
		if n := len(st.batches); n >= c.MinBatches && !backlogGrew {
			mean, sd := meanStd(st.batches)
			// ~95% half-width with the normal approximation; batch
			// counts here are large enough that the Student-t
			// correction is noise next to the monitor thresholds.
			half := 2.0 * sd / math.Sqrt(float64(n))
			if c.RelHalfWidth > 0 && mean > 0 && half/mean < c.RelHalfWidth {
				return VerdictStable
			}
			// Verdict-decided stop: the latency CI sits safely below
			// the saturation threshold and the accepted load tracks
			// the offered load, so no amount of further measurement
			// can flip the verdict.
			if c.DecideLatency > 0 && mean+half < 0.9*c.DecideLatency &&
				st.batches[n-1] < mean+2*half {
				accMean, _ := meanStd(st.accBatches)
				if accMean >= 0.95*s.cfg.InjectionRate {
					return VerdictStable
				}
			}
		}
	}

	st.winEjFlits = 0
	st.winLatSum = 0
	st.winPkts = 0
	return VerdictNone
}

// relWithin reports whether a is within tol (relative) of b.
func relWithin(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol*b
}

// meanStd returns the sample mean and standard deviation.
func meanStd(xs []float64) (mean, sd float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / (n - 1))
}
