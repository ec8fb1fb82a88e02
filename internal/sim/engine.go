package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"sparsehamming/internal/obs"
)

// packet is one in-flight packet. Packet slots live in
// Simulator.packets and are recycled through a free list once the
// tail flit ejects (see generate and traverse), so the slot array is
// bounded by the peak number of live packets rather than the total
// injected over the run.
type packet struct {
	src, dst int32
	inject   int64
	// hops[i] is the output port and VC class taken at the i-th router
	// of the routed path, shared with the Shape's pathHops LUT (never
	// mutated).
	hops []hopStep
	// hop is the index in hops of the next hop VC allocation resolves
	// for the head flit; it advances once per router on the path (the
	// SoA engine advances it when it grants the head an output VC), so
	// VC allocation never searches the path.
	hop int16
	// nextSeq is the flit sequence number the destination expects
	// next; it verifies in-order, loss-free, duplication-free
	// delivery (wormhole flow control guarantees all three).
	nextSeq int16
	// plen is this packet's length in flits. Bernoulli traffic always
	// uses Config.PacketLen; trace replay carries per-record sizes
	// (bounded by trace.MaxPacketLen, so 16 bits suffice).
	plen     int16
	measured bool
}

// Stats summarizes one simulation run.
type Stats struct {
	Cycles int64

	// Offered and accepted load, in flits per node per cycle over the
	// measurement window.
	OfferedRate  float64
	AcceptedRate float64

	// Packet latency statistics over measured packets (injection of
	// the head flit to ejection of the tail flit, including source
	// queueing).
	AvgPacketLatency float64
	MaxPacketLatency int64

	// P50/P99PacketLatency are latency percentiles over measured
	// packets (0 when nothing was measured).
	P50PacketLatency float64
	P99PacketLatency float64

	// MeasuredInjected / MeasuredEjected count packets generated in
	// the measurement window and how many of them were delivered
	// before the drain limit. A ratio well below 1 means the network
	// is past saturation.
	MeasuredInjected int64
	MeasuredEjected  int64

	AvgHops float64 // routing property, for reference

	// FlitHops counts every flit movement through a crossbar (link
	// traversals and ejections) over the whole run, warmup and drain
	// included. It is the simulator's work figure: perf harnesses
	// divide wall-clock time by it to report ns per flit.
	FlitHops int64

	// MaxLinkUtilization is the highest per-directed-channel flit
	// rate observed during the measurement window (flits per cycle,
	// at most 1); it identifies the bottleneck channel.
	MaxLinkUtilization float64

	// OrderViolations counts flits that arrived at their destination
	// out of sequence (must be 0: wormhole flow control delivers each
	// packet's flits in order on a single path).
	OrderViolations int64

	// Deadlocked is set if the watchdog saw no forward progress while
	// flits were in flight. The routings in package route are verified
	// deadlock-free, so this indicates a simulator misconfiguration.
	Deadlocked bool

	// Verdict records how an adaptive run ended (VerdictNone for
	// fixed-budget runs and adaptive runs that exhausted their
	// budget). See Config.Control.
	Verdict Verdict

	// MeasuredCycles is the effective measurement-phase length the
	// rate statistics are normalized over: Config.Measure, unless a
	// stable verdict truncated the phase early.
	MeasuredCycles int64
}

// DeliveredFraction returns MeasuredEjected / MeasuredInjected.
func (s Stats) DeliveredFraction() float64 {
	if s.MeasuredInjected == 0 {
		return 1
	}
	return float64(s.MeasuredEjected) / float64(s.MeasuredInjected)
}

// Simulator executes one configuration. Create with New, run with Run.
//
// The Simulator owns what every engine shares: the run loop and its
// phase schedule, the packet pool, traffic generation, and the
// statistics. The per-cycle router pipeline is the engine's: the
// structure-of-arrays simState (soa.go), with flat per-(port, vc)
// lanes indexed through the shape's portBase table and a link timing
// wheel.
//
// The steady-state cycle loop (step and the phases it calls) performs
// no heap allocations: packets are recycled through a free list, VC
// buffers are fixed-capacity rings sized at build time, route and
// output-port lookups are precomputed tables, and the allocators'
// scratch bitmasks and the link timing wheel are preallocated with
// the engine state. Dynamic queues (source queues, the latency log)
// grow to the run's high-water mark during warmup and are then
// reused.
type Simulator struct {
	cfg Config
	eng engine

	n       int // router count
	packets []packet
	rng     *rand.Rand
	now     int64

	// freePkts holds recycled indices into packets whose tail flit
	// has ejected; generate reuses them before growing the slot array.
	// It stays empty when noPool is set (tracing needs stable IDs).
	freePkts []int32
	noPool   bool

	// pathHops[src][dst] is the routed path src->dst as the engine
	// consumes it (see Shape.pathHops), so the hot path never searches
	// a path or a neighbor list.
	pathHops [][][]hopStep

	vcPerClass int

	flitsInFlight int64
	lastProgress  int64
	flitHops      int64

	// ctl holds the adaptive-control monitor state; nil for
	// fixed-budget runs, whose hot path never touches it, and from a
	// stable verdict on.
	ctl *ctlState

	// replaySched is the scaled injection schedule when the replica's
	// pattern is a trace Replay (nil for Bernoulli traffic): the
	// trace's records with cycles divided by the load scale, sorted by
	// effective cycle. replayIdx is the cursor of the next record to
	// inject. See replay.go.
	replaySched []replayEvent
	replayIdx   int

	measureStart, measureEnd int64
	winFlits                 int64
	measInjected             int64
	measEjected              int64
	latencySum               int64
	latencyMax               int64
	latencies                []int64
	orderViolations          int64
	linkFlits                []int64 // flits traversed per directed channel in the window
}

// engine is the per-cycle router pipeline of one replica. simState is
// the only engine the package ships; the interface is the seam that
// lets the differential tests run the same Simulator over a retained
// array-of-structs oracle instead (reference_test.go).
type engine interface {
	// deliver lands the flits and credits that arrive at cycle t.
	deliver(t int64)
	// advance runs source injection, VC allocation, and switch
	// allocation and traversal for cycle t.
	advance(t int64)
	// enqueue queues packet pid at its source router.
	enqueue(src, pid int32)
	// queued returns the number of packets waiting in source queues.
	queued() int64
}

// watchdogCycles is how long the watchdog waits without any flit
// movement before declaring deadlock.
const watchdogCycles = 8000

// New builds a simulator for the configuration (applying defaults).
// It is equivalent to building a single-use Shape and instantiating
// one replica from it; callers running several configurations that
// differ only in load, seed, pattern, or schedule should build the
// Shape once and instantiate replicas from it (see NewShape).
func New(cfg Config) (*Simulator, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newShape(&cfg).instantiate(&cfg), nil
}

// instantiate builds one replica — the shared per-run state of
// newReplica plus the SoA engine's flat lanes and link timing wheel —
// over the shape's wiring and LUT. cfg must be defaulted, validated,
// and match the shape (see Instantiate for the checked public entry
// point).
func (sh *Shape) instantiate(cfg *Config) *Simulator {
	s := sh.newReplica(cfg)
	s.eng = newSimState(s, sh)
	return s
}

// newReplica allocates a replica's engine-independent state: the RNG,
// the packet pool, the statistics, and the replay schedule. The caller
// attaches the engine.
func (sh *Shape) newReplica(cfg *Config) *Simulator {
	s := &Simulator{
		cfg:        *cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		vcPerClass: cfg.NumVCs / cfg.Routing.NumClasses,
		noPool:     cfg.Tracer != nil,
		pathHops:   sh.pathHops,
		n:          sh.topo.NumTiles(),
		linkFlits:  make([]int64, len(sh.chans)),
	}
	if rp, ok := cfg.Pattern.(*Replay); ok {
		s.replaySched = rp.schedule(cfg.InjectionRate)
	}
	counters.simBuilds.Add(1)
	return s
}

// classVCRange returns the VC interval [lo, hi) serving a VC class.
func (s *Simulator) classVCRange(class int8) (int, int) {
	lo := int(class) * s.vcPerClass
	hi := lo + s.vcPerClass
	if int(class) == s.cfg.Routing.NumClasses-1 {
		hi = s.cfg.NumVCs
	}
	return lo, hi
}

// Run executes the configured warmup/measure/drain schedule and
// returns the statistics. With Config.Control set, the schedule is a
// cap rather than a sentence: the adaptive monitors may end the run
// with a saturation verdict or truncate the measurement phase once
// the latency estimate has converged (see control.go); without it the
// fixed schedule executes bit-identically to previous releases.
func (s *Simulator) Run() Stats {
	cfg := &s.cfg
	s.measureStart = int64(cfg.Warmup)
	s.measureEnd = int64(cfg.Warmup + cfg.Measure)
	s.lastProgress = 0
	verdict := VerdictNone
	if cfg.Control != nil {
		s.ctl = newCtlState(*cfg.Control, cfg.Measure)
	}

	// Preallocate the latency log for the expected measured-packet
	// count (plus slack), so recording latencies in steady state does
	// not allocate.
	if s.latencies == nil {
		expect := int(cfg.InjectionRate / float64(cfg.PacketLen) *
			float64(cfg.Topo.NumTiles()) * float64(cfg.Measure))
		if s.replaySched != nil {
			// Replay knows its packet count exactly; the measured subset
			// can only be smaller.
			expect = len(s.replaySched)
		}
		s.latencies = make([]int64, 0, expect+expect/4+64)
	}

	// Phase tracing: when a span is attached, mark the
	// warmup/measure/drain transitions as child spans. The boundaries
	// are detected against s.measureStart/s.measureEnd each iteration
	// because adaptive control moves both; with no span attached the
	// loop pays a single nil check per cycle and allocates nothing.
	ph := phaseTrace{span: cfg.Span}
	ph.enter("warmup", 0)

	deadlocked := false
loop:
	for {
		t := s.now
		if ph.span != nil {
			if ph.n == 1 && t >= s.measureStart {
				ph.enter("measure", t)
			}
			if ph.n == 2 && t >= s.measureEnd {
				ph.enter("drain", t)
			}
		}
		// s.measureEnd moves when a stable verdict truncates the
		// measurement phase, so the injection stop and drain deadline
		// are derived from it every cycle.
		if t >= s.measureEnd+int64(cfg.Drain) {
			break
		}
		if t >= s.measureEnd && s.measEjected == s.measInjected && s.flitsInFlight == 0 {
			break
		}
		if s.flitsInFlight > 0 && t-s.lastProgress > watchdogCycles {
			deadlocked = true
			break
		}
		if s.ctl != nil && t == s.ctl.nextCheck {
			switch v := s.controlCheck(t); v {
			case VerdictSaturated:
				verdict = v
				break loop
			case VerdictStable:
				// Truncate the measurement phase here and drain
				// normally, so the delivered statistics stay
				// unbiased; injection stops this cycle. The
				// monitors are finished: no further checks.
				verdict = v
				s.measureEnd = t
				s.ctl = nil
			}
		}
		s.step(t < s.measureEnd)
	}

	effMeasure := s.measureEnd - s.measureStart
	st := Stats{
		Cycles:           s.now,
		OfferedRate:      cfg.InjectionRate,
		AcceptedRate:     float64(s.winFlits) / (float64(effMeasure) * float64(cfg.Topo.NumTiles())),
		MeasuredInjected: s.measInjected,
		MeasuredEjected:  s.measEjected,
		MaxPacketLatency: s.latencyMax,
		AvgHops:          cfg.Routing.AvgHops(),
		FlitHops:         s.flitHops,
		OrderViolations:  s.orderViolations,
		Deadlocked:       deadlocked,
		Verdict:          verdict,
		MeasuredCycles:   effMeasure,
	}
	if s.measEjected > 0 {
		st.AvgPacketLatency = float64(s.latencySum) / float64(s.measEjected)
		slices.Sort(s.latencies)
		st.P50PacketLatency = float64(s.latencies[len(s.latencies)/2])
		st.P99PacketLatency = float64(s.latencies[len(s.latencies)*99/100])
	}
	var maxFlits int64
	for _, n := range s.linkFlits {
		if n > maxFlits {
			maxFlits = n
		}
	}
	if effMeasure > 0 {
		st.MaxLinkUtilization = float64(maxFlits) / float64(effMeasure)
	}
	ph.finish(s.now, &st)
	countRun(&st)
	return st
}

// phaseTrace tracks which simulation phase the Run loop is in and
// mirrors the transitions into child spans of the run's span. Inert
// (and allocation-free) when span is nil.
type phaseTrace struct {
	span    *obs.Span
	cur     *obs.Span
	n       int   // 1 = warmup, 2 = measure, 3 = drain
	startAt int64 // cycle the current phase began
}

// enter closes the current phase span and opens the next.
func (p *phaseTrace) enter(name string, t int64) {
	if p.span == nil {
		return
	}
	p.close(t)
	p.cur = p.span.Child(name)
	p.n++
	p.startAt = t
}

// close ends the current phase span, recording its cycle count.
func (p *phaseTrace) close(t int64) {
	if p.cur != nil {
		p.cur.SetAttr("cycles", t-p.startAt)
		p.cur.End()
		p.cur = nil
	}
}

// finish closes the open phase span and annotates the run span with
// the run's outcome.
func (p *phaseTrace) finish(t int64, st *Stats) {
	if p.span == nil {
		return
	}
	p.close(t)
	p.span.SetAttr("cycles", st.Cycles)
	if st.Verdict != VerdictNone {
		p.span.SetAttr("verdict", st.Verdict.String())
	}
	if st.Deadlocked {
		p.span.SetAttr("deadlocked", true)
	}
}

// step advances the network by one cycle. It runs the five-phase
// router pipeline in a fixed order — link delivery, generation and
// injection, VC allocation, switch allocation and traversal — and is
// allocation-free in steady state (see the Simulator doc).
func (s *Simulator) step(inject bool) {
	t := s.now
	s.eng.deliver(t)
	if inject {
		s.generate(t)
	}
	s.eng.advance(t)
	s.now++
}

// generate draws new packets for every node (Bernoulli process with
// rate InjectionRate/PacketLen packets per node per cycle), or drains
// the replay schedule when the pattern is a trace Replay. Packet
// slots come from the free list when one is available, so the packet
// array stops growing once the network reaches steady state.
func (s *Simulator) generate(t int64) {
	if s.replaySched != nil {
		s.generateReplay(t)
		return
	}
	pPkt := s.cfg.InjectionRate / float64(s.cfg.PacketLen)
	measured := t >= s.measureStart && t < s.measureEnd
	for id := 0; id < s.n; id++ {
		if s.rng.Float64() >= pPkt {
			continue
		}
		dst := s.cfg.Pattern.Dest(id, s.rng)
		if dst < 0 || dst == id {
			continue
		}
		s.pushPacket(int32(id), int32(dst), t, int16(s.cfg.PacketLen), measured)
	}
}

// generateReplay hands every replay record whose scaled cycle has
// arrived to its source's injection queue, in schedule order. Unlike
// the Bernoulli path it draws nothing from the RNG, so replayed
// results are independent of Config.Seed.
func (s *Simulator) generateReplay(t int64) {
	measured := t >= s.measureStart && t < s.measureEnd
	for s.replayIdx < len(s.replaySched) {
		ev := &s.replaySched[s.replayIdx]
		if ev.cycle > t {
			return
		}
		s.replayIdx++
		s.pushPacket(ev.src, ev.dst, t, ev.plen, measured)
	}
}

// pushPacket allocates a packet slot (recycling from the free list
// when possible) and queues it at its source router.
func (s *Simulator) pushPacket(src, dst int32, t int64, plen int16, measured bool) {
	pk := packet{
		src:      src,
		dst:      dst,
		inject:   t,
		hops:     s.pathHops[src][dst],
		plen:     plen,
		measured: measured,
	}
	if measured {
		s.measInjected++
	}
	var pid int32
	if n := len(s.freePkts); n > 0 {
		pid = s.freePkts[n-1]
		s.freePkts = s.freePkts[:n-1]
		s.packets[pid] = pk
	} else {
		s.packets = append(s.packets, pk)
		pid = int32(len(s.packets) - 1)
	}
	s.eng.enqueue(src, pid)
}

// RunConfig is a convenience wrapper: build and run in one call.
func RunConfig(cfg Config) (Stats, error) {
	s, err := New(cfg)
	if err != nil {
		return Stats{}, err
	}
	return s.Run(), nil
}

// String renders key stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("offered=%.3f accepted=%.3f lat=%.1f delivered=%.2f",
		s.OfferedRate, s.AcceptedRate, s.AvgPacketLatency, s.DeliveredFraction())
}
