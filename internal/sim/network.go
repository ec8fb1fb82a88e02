package sim

import (
	"fmt"
	"math"

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
// injection/ejection port), into a 64-bit word. maxFlits bounds the
// VC buffer depth and the packet length: the engine keeps ring
// positions, credit counts, and flit sequence numbers in 16 bits.
const (
	maxVCs         = 64
	maxRouterPorts = 64
	maxFlits       = math.MaxInt16
)

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Topo == nil || c.Routing == nil {
		return fmt.Errorf("sim: missing topology or routing")
	}
	if c.Routing.Topo != c.Topo {
		return fmt.Errorf("sim: routing was built for a different topology")
	}
	if c.NumVCs < 1 {
		return fmt.Errorf("sim: %d VCs per port, need at least 1", c.NumVCs)
	}
	if c.NumVCs > maxVCs {
		return fmt.Errorf("sim: %d VCs per port exceed the engine's limit of %d", c.NumVCs, maxVCs)
	}
	if c.BufDepth < 1 || c.BufDepth > maxFlits {
		return fmt.Errorf("sim: VC buffer depth of %d flits outside the engine's range of 1 to %d", c.BufDepth, maxFlits)
	}
	if c.PacketLen < 1 || c.PacketLen > maxFlits {
		return fmt.Errorf("sim: packet length of %d flits outside the engine's range of 1 to %d", c.PacketLen, maxFlits)
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
