package sim

import (
	"fmt"

	"sparsehamming/internal/obs"
	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

// Config parameterizes one simulation run.
type Config struct {
	Topo    *topo.Topology
	Routing *route.Routing

	// NumVCs is the number of virtual channels per input port; it is
	// partitioned evenly among the routing's VC classes. BufDepth is
	// the per-VC buffer depth in flits. The paper's evaluation uses
	// 8 VCs with 32-flit buffers.
	NumVCs   int
	BufDepth int

	// LinkLatency gives the pipeline depth of each link in cycles,
	// indexed like Topo.Links(); nil means one cycle everywhere.
	LinkLatency []int

	// RouterDelay is the router pipeline depth in cycles (route
	// computation through switch traversal); a flit arriving at cycle
	// t can leave no earlier than t + RouterDelay.
	RouterDelay int

	// PacketLen is the number of flits per packet.
	PacketLen int

	// InjectionRate is the offered load in flits per node per cycle
	// (so InjectionRate/PacketLen packets per node per cycle). When
	// Pattern is a trace Replay it is instead the replay's load scale:
	// 1 (or the 0 default) replays the trace at its recorded
	// intensity, smaller values time-dilate it proportionally (see
	// replay.go).
	InjectionRate float64

	// Pattern generates destinations for synthetic traffic, or — when
	// it is a *Replay — switches the engine to trace-driven injection.
	Pattern Pattern
	Seed    int64

	// Tracer, when non-nil, receives per-flit inject/traverse/eject
	// events (see trace.go). Tracing a saturated run produces very
	// large volumes; combine with PacketTracer.Watch to select
	// packets. Tracing also disables packet-slot recycling so traced
	// packet IDs stay unique for the whole run.
	Tracer Tracer

	// Phase lengths in cycles. After Warmup+Measure cycles injection
	// stops and the network drains for at most Drain cycles.
	Warmup  int
	Measure int
	Drain   int

	// Control, when non-nil, enables adaptive simulation control: the
	// run may end early with a Verdict (saturation proven, latency
	// confidence interval converged) instead of executing the full
	// schedule above, which stays the hard cap. Nil preserves the
	// fixed-budget schedule bit for bit. See control.go.
	Control *Control

	// Sched, when non-nil, lets saturation searches execute
	// speculative probes concurrently on borrowed worker slots. It
	// affects wall-clock time only — never results — and is therefore
	// not part of any job identity.
	Sched ProbeScheduler

	// Span, when non-nil, receives the execution trace: the engine
	// attaches warmup/measure/drain phase child spans, and the
	// saturation searches attach zero-load and per-probe spans (see
	// package obs). Tracing is wall-clock observability only — it
	// never affects results and is not part of any job identity. The
	// per-cycle hot path pays one nil check when unset.
	Span *obs.Span

	// reference selects the retained array-of-structs engine instead
	// of the structure-of-arrays default (see reference.go). It is
	// build-internal: only in-package differential tests and
	// benchmarks set it, to use the old layout as the oracle the SoA
	// engine is verified bit-identical against.
	reference bool
}

// Defaults fills unset fields with the paper's evaluation defaults.
func (c *Config) Defaults() {
	if c.NumVCs == 0 {
		c.NumVCs = 8
	}
	if c.BufDepth == 0 {
		c.BufDepth = 32
	}
	if c.RouterDelay == 0 {
		c.RouterDelay = 3
	}
	if c.PacketLen == 0 {
		c.PacketLen = 4
	}
	if c.Pattern == nil {
		c.Pattern = UniformRandom{N: c.Topo.NumTiles()}
	}
	if c.Warmup == 0 {
		c.Warmup = 2000
	}
	if c.Measure == 0 {
		c.Measure = 6000
	}
	if c.Drain == 0 {
		c.Drain = 30000
	}
}

// maxVCs and maxRouterPorts bound the configurations the engine can
// hold: its allocators pack one bit per VC of a port, and one bit per
// port of a router (the link ports plus the local
// injection/ejection port), into a 64-bit word.
const (
	maxVCs         = 64
	maxRouterPorts = 64
)

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Topo == nil || c.Routing == nil {
		return fmt.Errorf("sim: missing topology or routing")
	}
	if c.Routing.Topo != c.Topo {
		return fmt.Errorf("sim: routing was built for a different topology")
	}
	if c.NumVCs > maxVCs {
		return fmt.Errorf("sim: %d VCs per port exceed the engine's limit of %d", c.NumVCs, maxVCs)
	}
	if ports := c.Topo.MaxRadix() + 1; ports > maxRouterPorts {
		return fmt.Errorf("sim: a router with %d ports (radix %d plus the local port) exceeds the engine's limit of %d",
			ports, ports-1, maxRouterPorts)
	}
	if c.NumVCs < c.Routing.NumClasses {
		return fmt.Errorf("sim: %d VCs cannot host %d VC classes", c.NumVCs, c.Routing.NumClasses)
	}
	if c.LinkLatency != nil && len(c.LinkLatency) != c.Topo.NumLinks() {
		return fmt.Errorf("sim: %d link latencies for %d links", len(c.LinkLatency), c.Topo.NumLinks())
	}
	if c.InjectionRate < 0 || c.InjectionRate > 1 {
		return fmt.Errorf("sim: injection rate %v outside [0,1]", c.InjectionRate)
	}
	if c.PacketLen < 1 {
		return fmt.Errorf("sim: packet length %d < 1", c.PacketLen)
	}
	if rp, ok := c.Pattern.(*Replay); ok {
		rows, cols := rp.Grid()
		if rows != c.Topo.Rows || cols != c.Topo.Cols {
			return fmt.Errorf("sim: replay trace grid %dx%d does not match the %dx%d topology",
				rows, cols, c.Topo.Rows, c.Topo.Cols)
		}
	}
	return nil
}

// flitRef identifies one flit: packet index and sequence number.
type flitRef struct {
	pkt   int32
	seq   int16
	ready int64 // earliest cycle the flit may leave this router
}

// timedFlit is a flit in flight on a link.
type timedFlit struct {
	pkt    int32
	seq    int16
	vc     int16 // destination input VC
	arrive int64
}

// timedCredit is a credit returning upstream on a link.
type timedCredit struct {
	vc     int16
	arrive int64
}

// dchan is one directed channel between two routers, with the flit
// and credit queues of the reference engine (the SoA engine keeps
// in-flight flits and credits in its timing wheel instead).
type dchan struct {
	from, to int32
	outPort  int16 // output port index at from
	inPort   int16 // input port index at to
	latency  int64
	flits    queue[timedFlit]
	credits  queue[timedCredit]
}

// queue is a simple FIFO with amortized O(1) operations. Its backing
// slice grows to the high-water mark of the run and is then reused,
// so a queue in steady state performs no allocations.
type queue[T any] struct {
	items []T
	head  int
}

func (q *queue[T]) len() int { return len(q.items) - q.head }

func (q *queue[T]) push(v T) { q.items = append(q.items, v) }

func (q *queue[T]) front() *T { return &q.items[q.head] }

func (q *queue[T]) pop() T {
	v := q.items[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// flitRing is a fixed-capacity FIFO of flits, preallocated at build
// time to the VC buffer depth. Unlike queue it never grows: credit
// flow control guarantees a flit is only forwarded into buffer space
// the upstream router holds a credit for, so push past capacity is a
// protocol violation and panics.
type flitRing struct {
	items []flitRef
	head  int
	n     int
}

// init sizes the ring for depth flits.
func (q *flitRing) init(depth int) { q.items = make([]flitRef, depth) }

func (q *flitRing) len() int { return q.n }

func (q *flitRing) push(v flitRef) {
	if q.n == len(q.items) {
		panic("sim: VC buffer overflow (credit accounting broken)")
	}
	i := q.head + q.n
	if i >= len(q.items) {
		i -= len(q.items)
	}
	q.items[i] = v
	q.n++
}

func (q *flitRing) front() *flitRef { return &q.items[q.head] }

func (q *flitRing) pop() flitRef {
	v := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.head = 0
	}
	q.n--
	return v
}

// vcState is one virtual channel of one input port.
type vcState struct {
	buf     flitRing
	outPort int16 // allocated output port for the packet in flight, -1 if none
	outVC   int16 // allocated downstream VC, -1 if none
}

// router holds the per-node microarchitectural state.
type router struct {
	id       int32
	inChans  []int32 // dchan index feeding input port i (len = degree)
	outChans []int32 // dchan index driven by output port o
	// Input ports: 0..deg-1 are links, port deg is injection.
	vcs [][]vcState // [inPort][vc]
	// Output ports: 0..deg-1 are links, port deg is ejection.
	credits  [][]int16 // [outPort][vc]; ejection port has no credit limit
	ovcOwner [][]int32 // [outPort][vc] = owning (inPort*V + vc), -1 free

	vaRR    []int // per output port: round-robin over requesters
	saInRR  []int // per input port: round-robin over VCs
	saOutRR []int // per output port: round-robin over input ports

	// saCand is the switch allocator's per-input candidate scratch,
	// preallocated at build time so allocation runs allocation-free.
	saCand []int16

	// bufFlits counts the flits currently buffered in any of the
	// router's input VCs. Routers with no buffered flits skip VC and
	// switch allocation entirely — at low load most routers are idle
	// most cycles, and this check is what makes them nearly free.
	bufFlits int32

	// needRoute counts buffered head flits that have not been granted
	// an output VC yet. VC allocation scans the input VCs only while
	// it is positive: each head is counted when it is buffered and
	// uncounted when its VC wins an output VC (or the ejection port).
	needRoute int32

	srcQ   queue[int32] // packets awaiting injection
	injSeq int16        // next flit seq of the packet currently injecting
	injVC  int16        // VC chosen for the current packet, -1 if none
}

func (r *router) numIn() int   { return len(r.inChans) + 1 }
func (r *router) numOut() int  { return len(r.outChans) + 1 }
func (r *router) injPort() int { return len(r.inChans) }
func (r *router) ejPort() int  { return len(r.outChans) }
