package sim

// A Shape is the read-only build product of one (topology, routing,
// link-latency) configuration, instantiated into many independent
// replicas that differ only in load, seed, traffic pattern, schedule,
// or adaptive-control state.
//
// The campaign layers would otherwise spend most of their build time
// recomputing the same network over and over: a saturation search
// runs a zero-load reference plus up to eight probes, and a load
// sweep one run per point, each of which used to rebuild the routers,
// channel wiring, and — dominating everything — the per-(src,dst)
// routing LUT. A Shape computes all of that once; Instantiate only
// allocates the mutable per-replica state (VC lanes, credit counters,
// arbiter pointers, source queues, the link timing wheel).
//
// Correctness is bit-level by construction: replicas share no mutable
// state (the Shape is never written after NewShape returns) and each
// replica runs exactly the per-cycle code of a fresh Simulator. The
// differential harness in differential_test.go enforces this field by
// field across every topology family.

import (
	"fmt"
	"slices"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

// chanShape is the immutable description of one directed channel:
// endpoints, port numbers, and pipeline latency. The flits and
// credits in flight on it live in each replica's link timing wheel.
type chanShape struct {
	from, to int32
	outPort  int16
	inPort   int16
	latency  int64
}

// hopStep is one hop of a routed path as the engine consumes it: the
// output port the head flit takes at the router holding it and the VC
// class of the channel that port drives.
type hopStep struct {
	port  int16
	class int8
}

// Shape is the replica-independent build product of one (topology,
// routing, link-latency) configuration: the directed-channel layout,
// the per-router channel wiring, and the per-(src,dst) routing LUT. It is read-only after NewShape returns and therefore safe to
// share across replicas running concurrently (the adaptive saturation
// search's speculative probes instantiate from one Shape on several
// goroutines).
type Shape struct {
	topo    *topo.Topology
	routing *route.Routing
	linkLat []int // copy of the Config.LinkLatency it was built from

	chans []chanShape

	// inChans[id] / outChans[id] are the chans indices feeding input
	// port i / driven by output port o of router id. Replicas reference
	// these slices directly (they are never mutated).
	inChans, outChans [][]int32

	// pathHops[src][dst][i] is the output port and VC class taken at
	// the i-th router of the routed path src->dst. Packets reference
	// rows of this table directly; it is the dominant build cost a
	// Shape amortizes.
	pathHops [][][]hopStep

	// portBase is the structure-of-arrays engine's port-offset table:
	// router id owns the global ports [portBase[id], portBase[id+1])
	// — its degree link ports plus the injection/ejection port — so
	// flat per-(port, vc) state arrays are indexed without any
	// per-router indirection (see simState in soa.go). numPorts is
	// portBase[n] and maxIn the widest router's port count (the switch
	// allocator's scratch width).
	portBase []int32
	numPorts int
	maxIn    int
}

// NewShape builds the shared state for the configuration's topology,
// routing, and link latencies. The remaining Config fields (load,
// seed, VC parameters, schedule) are ignored — they parameterize
// Instantiate, not the shape.
func NewShape(cfg Config) (*Shape, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newShape(&cfg), nil
}

// newShape builds the shared state from a defaulted, validated config.
func newShape(cfg *Config) *Shape {
	t := cfg.Topo
	n := t.NumTiles()
	sh := &Shape{
		topo:     t,
		routing:  cfg.Routing,
		linkLat:  slices.Clone(cfg.LinkLatency),
		inChans:  make([][]int32, n),
		outChans: make([][]int32, n),
	}

	// Per-link latency lookup.
	latOf := make(map[[2]int32]int64)
	for i, l := range t.Links() {
		lat := int64(1)
		if cfg.LinkLatency != nil {
			lat = int64(cfg.LinkLatency[i])
			if lat < 1 {
				lat = 1
			}
		}
		a, b := int32(t.Index(l.A)), int32(t.Index(l.B))
		latOf[[2]int32{a, b}] = lat
		latOf[[2]int32{b, a}] = lat
	}

	// Port numbering: position of the neighbor in the sorted neighbor
	// list (both for input and output ports).
	portOf := func(node, nb int) int16 {
		for i, v := range t.Neighbors(node) {
			if v == nb {
				return int16(i)
			}
		}
		panic("sim: neighbor not found")
	}

	sh.portBase = make([]int32, n+1)
	for id := 0; id < n; id++ {
		deg := t.Degree(id)
		sh.inChans[id] = make([]int32, deg)
		sh.outChans[id] = make([]int32, deg)
		sh.portBase[id+1] = sh.portBase[id] + int32(deg+1)
		if deg+1 > sh.maxIn {
			sh.maxIn = deg + 1
		}
	}
	sh.numPorts = int(sh.portBase[n])

	// Directed channels: one per (from, to) adjacency.
	for id := 0; id < n; id++ {
		for _, nb := range t.Neighbors(id) {
			c := chanShape{
				from:    int32(id),
				to:      int32(nb),
				outPort: portOf(id, nb),
				inPort:  portOf(nb, id),
				latency: latOf[[2]int32{int32(id), int32(nb)}],
			}
			idx := int32(len(sh.chans))
			sh.chans = append(sh.chans, c)
			sh.outChans[id][c.outPort] = idx
			sh.inChans[nb][c.inPort] = idx
		}
	}

	// Precompute, per (src, dst) pair, the output port and VC class
	// taken at every hop of the routed path, so neither VC allocation
	// nor injection ever searches a path or a neighbor list at
	// simulation time.
	portTo := make([][]int16, n)
	for id := range portTo {
		portTo[id] = make([]int16, n)
		for j := range portTo[id] {
			portTo[id][j] = -1
		}
	}
	for _, c := range sh.chans {
		portTo[c.from][c.to] = c.outPort
	}
	sh.pathHops = make([][][]hopStep, n)
	for src := 0; src < n; src++ {
		row := make([][]hopStep, n)
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			p := cfg.Routing.Path(src, dst)
			hops := make([]hopStep, p.Hops())
			for i := range hops {
				hops[i] = hopStep{port: portTo[p.Tiles[i]][p.Tiles[i+1]], class: p.Classes[i]}
				if hops[i].port < 0 {
					panic("sim: routed path uses a missing channel")
				}
			}
			row[dst] = hops
		}
		sh.pathHops[src] = row
	}

	counters.shapeBuilds.Add(1)
	return sh
}

// matches reports whether the config's topology, routing, and link
// latencies are the ones the shape was built from.
func (sh *Shape) matches(cfg *Config) error {
	if cfg.Topo != sh.topo || cfg.Routing != sh.routing {
		return fmt.Errorf("sim: config topology/routing differ from the shape's")
	}
	if !slices.Equal(cfg.LinkLatency, sh.linkLat) {
		return fmt.Errorf("sim: config link latencies differ from the shape's")
	}
	return nil
}

// Instantiate builds one simulator replica over the shared shape. The
// config's topology, routing, and link latencies must be exactly the
// shape's; everything else (load, seed, pattern, VC parameters,
// schedule, control) is free per replica.
func (sh *Shape) Instantiate(cfg Config) (*Simulator, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sh.matches(&cfg); err != nil {
		return nil, err
	}
	return sh.instantiate(&cfg), nil
}
