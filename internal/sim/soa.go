package sim

// Structure-of-arrays engine state. The mutable per-replica state is
// a handful of dense arrays indexed by a global (router, port, vc)
// offset scheme precomputed in the Shape: router id owns global ports
// [portBase[id], portBase[id+1]) — its link ports in neighbor order
// plus the injection/ejection port last — and VC lane vcIdx =
// globalPort*V + vc. The flit buffers of all VCs live in one ring
// arena (flit slot vcIdx*D + pos), flits and credits in flight on the
// links live in one timing wheel, and every scan the per-cycle phases
// make is a bit scan: idle routers are skipped through a word-granular
// occupancy bitmap, routers and ports with nothing to allocate through
// per-router port masks, lanes through per-port VC masks, and busy
// output VCs through per-port free masks.
//
// The layout is behavior-invariant: the phases below compute exactly
// the state transitions of a plain array-of-structs engine that
// visits every router, port, and VC (the proof obligations are
// spelled out next to each divergence), and soa_test.go pins the two
// bit-identical against the retained oracle in reference_test.go
// across the full configuration matrix, multi-cycle links included.

import "math/bits"

// simState is the flat per-replica state of the structure-of-arrays
// engine. All slices are allocated once at instantiate; the hot path
// only indexes them.
type simState struct {
	sim *Simulator // the replica whose packets and statistics the pipeline updates

	V int // VCs per port (Config.NumVCs)
	D int // flits per VC ring (Config.BufDepth)

	// Read-only wiring shared with the Shape.
	portBase []int32
	inChans  [][]int32
	outChans [][]int32
	chans    []chanShape

	// Per-VC lanes, indexed by vcIdx = globalPort*V + vc. outPort and
	// outVC are the input-side VC allocation (-1 when unrouted);
	// credits is the output-side bookkeeping of the same global port
	// numbering (numIn == numOut at every router).
	outPort  []int16
	outVC    []int16
	ringHead []int16
	ringN    []int16
	credits  []int16

	// ring is the flit arena backing every VC buffer: the flit at ring
	// position pos of lane vcIdx lives at ring[vcIdx*D + pos].
	ring []flitRef

	// headMask and busyMask summarize the lanes of each global port
	// as one bit per VC, so the allocator scans iterate set bits
	// instead of testing every lane:
	//
	//	headMask[gp] bit v: lane gp*V+v's front flit is an unrouted
	//	    head — exactly the lanes VC allocation must consider.
	//	busyMask[gp] bit v: the lane has a routed packet (outPort
	//	    set) and flits buffered — exactly the lanes switch
	//	    allocation must consider.
	//
	// Per-VC FIFO order makes the transitions local: a head flit
	// pushed onto an empty unrouted lane sets head, a VC grant moves
	// head→busy, a body flit pushed onto a drained routed lane sets
	// busy, a non-tail pop that empties the ring clears busy, and a
	// tail pop clears busy and sets head again if another packet's
	// head is now at the front.
	//
	// headPorts and busyPorts lift the same summary one level: bit p
	// of headPorts[id] (busyPorts[id]) is set exactly when
	// headMask[portBase[id]+p] (busyMask) is nonzero, so the
	// allocators visit only the ports that have lanes to consider and
	// skip a router outright when its word is zero.
	headMask  []uint64
	busyMask  []uint64
	headPorts []uint64
	busyPorts []uint64

	// ovcFree[gp] bit v is set while output VC v of global port gp is
	// unowned. ANDed with classMask[class] — the VC interval of one
	// routing class — its lowest set bit is the VC the allocator
	// grants.
	ovcFree   []uint64
	classMask []uint64

	// saReq[op] is the output arbiter's request bitmask — bit ip set
	// when input port ip's candidate VC requests output port op —
	// rebuilt during input arbitration each cycle and consumed (and
	// cleared) by output arbitration. With it, each contested port
	// resolves with two bit scans instead of walking every
	// (output, input) pair.
	saReq []uint64

	// Per-global-port round-robin arbiter pointers (switch allocation)
	// and the input-arbitration candidate scratch, sized to the widest
	// router. The VC allocator's round-robin pointer needs no storage:
	// it advances by exactly one every cycle unconditionally, so it is
	// always t mod (numIn*V).
	saInRR  []int16
	saOutRR []int16
	saCand  []int16

	// Per-router lanes.
	bufFlits []int32
	injVC    []int16
	injSeq   []int16
	srcQ     []queue[int32]

	// occ is the occupancy bitmap: bit id is set while router id has
	// queued source packets or buffered flits. Set on packet arrival
	// (pushPacket) and flit delivery; cleared by the end-of-cycle scan
	// once the router drained. Phases 2-5 scan set bits only.
	occ []uint64

	// The link timing wheel: a calendar of calMask+1 slots (a power of
	// two longer than the largest link latency), slot k holding the
	// flits and credits that arrive on the cycles t with t&calMask ==
	// k. Only cycles t+1 .. t+maxLatency can be pending at cycle t, so
	// no two pending cycles share a slot. A channel carries at most
	// one flit and one credit per cycle, so calCap — the directed
	// channel count — bounds every slot, and slot k's entries live at
	// [k*calCap, k*calCap+calFlitN[k]) of calFlits (respectively
	// calCreditN[k] of calCredits, each the credits lane it refills).
	calMask    int64
	calCap     int
	calFlits   []calFlit
	calFlitN   []int32
	calCredits []int32
	calCreditN []int32
}

// calFlit is one flit in flight on a link, with the router, local
// input port, and VC it is bound for.
type calFlit struct {
	pkt  int32
	to   int32
	seq  int16
	port int16
	vc   int16
}

// setOcc marks router id as occupied.
func (st *simState) setOcc(id int32) {
	st.occ[uint32(id)>>6] |= 1 << (uint32(id) & 63)
}

// newSimState allocates the structure-of-arrays engine state of
// replica s over the shape's offset tables.
func newSimState(s *Simulator, sh *Shape) *simState {
	V, D := s.cfg.NumVCs, s.cfg.BufDepth
	P := sh.numPorts
	maxLat := int64(1)
	for i := range sh.chans {
		maxLat = max(maxLat, sh.chans[i].latency)
	}
	slots := 1 << bits.Len64(uint64(maxLat)) // smallest power of two > maxLat
	nch := len(sh.chans)
	st := &simState{
		sim:        s,
		V:          V,
		D:          D,
		portBase:   sh.portBase,
		inChans:    sh.inChans,
		outChans:   sh.outChans,
		chans:      sh.chans,
		outPort:    make([]int16, P*V),
		outVC:      make([]int16, P*V),
		ringHead:   make([]int16, P*V),
		ringN:      make([]int16, P*V),
		credits:    make([]int16, P*V),
		ring:       make([]flitRef, P*V*D),
		headMask:   make([]uint64, P),
		busyMask:   make([]uint64, P),
		headPorts:  make([]uint64, s.n),
		busyPorts:  make([]uint64, s.n),
		ovcFree:    make([]uint64, P),
		classMask:  make([]uint64, s.cfg.Routing.NumClasses),
		saInRR:     make([]int16, P),
		saOutRR:    make([]int16, P),
		saCand:     make([]int16, sh.maxIn),
		saReq:      make([]uint64, sh.maxIn),
		bufFlits:   make([]int32, s.n),
		injVC:      make([]int16, s.n),
		injSeq:     make([]int16, s.n),
		srcQ:       make([]queue[int32], s.n),
		occ:        make([]uint64, (s.n+63)/64),
		calMask:    int64(slots - 1),
		calCap:     nch,
		calFlits:   make([]calFlit, slots*nch),
		calFlitN:   make([]int32, slots),
		calCredits: make([]int32, slots*nch),
		calCreditN: make([]int32, slots),
	}
	for i := range st.outPort {
		st.outPort[i] = -1
		st.outVC[i] = -1
		st.credits[i] = int16(D)
	}
	allVCs := uint64(1)<<uint(V) - 1 // V == 64 wraps to all ones
	for i := range st.ovcFree {
		st.ovcFree[i] = allVCs
	}
	for c := range st.classMask {
		lo, hi := s.classVCRange(int8(c))
		st.classMask[c] = allVCs >> uint(V-hi) &^ (1<<uint(lo) - 1)
	}
	for i := range st.injVC {
		st.injVC[i] = -1
	}
	return st
}

// ringPush appends a flit to VC lane vcIdx's ring.
func (st *simState) ringPush(vcIdx int, f flitRef) {
	n := int(st.ringN[vcIdx])
	if n == st.D {
		panic("sim: flit ring overflow (credit flow control broken)")
	}
	i := int(st.ringHead[vcIdx]) + n
	if i >= st.D {
		i -= st.D
	}
	st.ring[vcIdx*st.D+i] = f
	st.ringN[vcIdx] = int16(n + 1)
}

// pushFlit appends flit f to VC v of local port p of router id and
// updates the router's flit count and masks: a head pushed onto an
// empty unrouted lane makes it a waiting head, and a body flit pushed
// onto a drained routed lane makes it busy again.
func (st *simState) pushFlit(id int32, p, v int, f flitRef) {
	gp := int(st.portBase[id]) + p
	vcIdx := gp*st.V + v
	st.ringPush(vcIdx, f)
	st.bufFlits[id]++
	if st.ringN[vcIdx] != 1 {
		return
	}
	if f.seq == 0 {
		if st.outPort[vcIdx] < 0 {
			st.headMask[gp] |= 1 << uint(v)
			st.headPorts[id] |= 1 << uint(p)
		}
	} else if st.outPort[vcIdx] >= 0 {
		st.busyMask[gp] |= 1 << uint(v)
		st.busyPorts[id] |= 1 << uint(p)
	}
}

// ringFront returns the head flit of lane vcIdx (which must be
// non-empty).
func (st *simState) ringFront(vcIdx int) *flitRef {
	return &st.ring[vcIdx*st.D+int(st.ringHead[vcIdx])]
}

// ringPop removes and returns the head flit of lane vcIdx.
func (st *simState) ringPop(vcIdx int) flitRef {
	h := int(st.ringHead[vcIdx])
	f := st.ring[vcIdx*st.D+h]
	h++
	if h == st.D {
		h = 0
	}
	st.ringHead[vcIdx] = int16(h)
	st.ringN[vcIdx]--
	return f
}

// advance runs phases 2-5 of cycle t. They visit only routers whose
// occupancy bit is set, and within them VC allocation only routers
// and ports with a headPorts bit, switch allocation only those with a
// busyPorts bit. Skipping is safe because every phase's body is a
// no-op on what it skips: injection returns on an empty source queue,
// VC allocation considers only lanes with an unrouted head at the
// front (and its round-robin pointer is virtual, so skipping mutates
// nothing), and switch allocation without a busy lane makes no
// request and touches no arbiter pointer. Scanning ascending ids
// preserves the visit order of an engine that visits every router,
// so shared-state side effects (packet-pool recycle order, latency
// log order, trace event order) are identical.
func (st *simState) advance(t int64) {
	st.injectPhase(t)
	st.vcAllocPhase(t)
	st.switchPhase(t)
}

// enqueue queues packet pid at its source router and marks the router
// occupied.
func (st *simState) enqueue(src, pid int32) {
	st.srcQ[src].push(pid)
	st.setOcc(src)
}

// queued returns the number of packets waiting in source queues.
func (st *simState) queued() int64 {
	n := int64(0)
	for i := range st.srcQ {
		n += int64(st.srcQ[i].len())
	}
	return n
}

// injectPhase runs source injection over the occupied routers.
func (st *simState) injectPhase(t int64) {
	for w, word := range st.occ {
		base := int32(w << 6)
		for word != 0 {
			id := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			st.injectFlits(id, t)
		}
	}
}

// vcAllocPhase runs VC allocation over the occupied routers that
// have a lane with an unrouted head at its front.
func (st *simState) vcAllocPhase(t int64) {
	for w, word := range st.occ {
		base := int32(w << 6)
		for word != 0 {
			id := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			if st.headPorts[id] != 0 {
				st.vcAlloc(id, t)
			}
		}
	}
}

// switchPhase runs switch allocation and traversal over the
// occupied routers with a busy lane, clearing the occupancy bit of
// routers that drained this cycle.
func (st *simState) switchPhase(t int64) {
	for w := range st.occ {
		word := st.occ[w]
		base := int32(w << 6)
		for word != 0 {
			id := base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			if st.busyPorts[id] != 0 {
				st.switchAllocTraverse(id, t)
			}
			if st.bufFlits[id] == 0 && st.srcQ[id].len() == 0 {
				st.occ[w] &^= 1 << (uint32(id) & 63)
			}
		}
	}
}

// deliver moves the flits and credits of the timing-wheel slot of
// cycle t into the downstream (respectively upstream) router's lanes,
// marking flit destinations occupied, and empties the slot. Each
// directed channel feeds its own input port and returns credits to
// its own output port, so the order of entries within a slot cannot
// change the resulting state.
func (st *simState) deliver(t int64) {
	slot := int(t & st.calMask)
	off := slot * st.calCap
	if n := int(st.calFlitN[slot]); n > 0 {
		ready := t + int64(st.sim.cfg.RouterDelay)
		for _, f := range st.calFlits[off : off+n] {
			st.pushFlit(f.to, int(f.port), int(f.vc), flitRef{pkt: f.pkt, seq: f.seq, ready: ready})
			st.setOcc(f.to)
		}
		st.calFlitN[slot] = 0
	}
	if n := int(st.calCreditN[slot]); n > 0 {
		for _, lane := range st.calCredits[off : off+n] {
			st.credits[lane]++
		}
		st.calCreditN[slot] = 0
	}
}

// injectFlits moves at most one flit per cycle from the source
// queue into the injection port, choosing a VC of the packet's first
// hop class for each new packet.
func (st *simState) injectFlits(id int32, t int64) {
	s := st.sim
	q := &st.srcQ[id]
	if q.len() == 0 {
		return
	}
	base := int(st.portBase[id])
	nIn := int(st.portBase[id+1]) - base
	injBase := (base + nIn - 1) * st.V // injection port is the last
	if st.injVC[id] < 0 {
		// Pick the emptiest VC of the packet's first-hop class.
		// Injection is serialized packet-by-packet, so packets queued
		// in the same VC never interleave flits.
		pk := &s.packets[*q.front()]
		class := int8(0)
		if len(pk.hops) > 0 {
			class = pk.hops[0].class
		}
		lo, hi := s.classVCRange(class)
		best, bestFree := -1, 0
		for v := lo; v < hi; v++ {
			if free := st.D - int(st.ringN[injBase+v]); free > bestFree {
				best, bestFree = v, free
			}
		}
		if best < 0 {
			return
		}
		st.injVC[id] = int16(best)
		st.injSeq[id] = 0
	}
	vcIdx := injBase + int(st.injVC[id])
	if int(st.ringN[vcIdx]) >= st.D {
		return
	}
	pid := *q.front()
	seq := st.injSeq[id]
	st.pushFlit(id, nIn-1, int(st.injVC[id]), flitRef{pkt: pid, seq: seq, ready: t + int64(s.cfg.RouterDelay)})
	s.flitsInFlight++
	// A flit entering the network is forward progress: without this the
	// watchdog would mistake a long injection silence (bursty traces;
	// never Bernoulli traffic) followed by one injection for a deadlock.
	s.lastProgress = t
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Trace(Event{Cycle: t, Kind: EvInject, Pkt: pid, Seq: seq, Node: id, Peer: s.packets[pid].dst, VC: st.injVC[id]})
	}
	st.injSeq[id] = seq + 1
	if int(seq+1) == int(s.packets[pid].plen) {
		q.pop()
		st.injVC[id] = -1
	}
}

// vcAlloc performs separable VC allocation over the router's flat VC
// lanes: every lane whose front flit is an unrouted head requests an
// output VC of its hop's class, and output VCs are granted
// first-come in round-robin order over the router's lanes. Only ports
// with a headPorts bit, and within them only lanes with a headMask
// bit, are inspected at all: the circular lane sweep becomes a bit
// scan over ports and then over each port's lanes. The round-robin
// start is virtual: the pointer advances by exactly one every cycle
// whether or not any request exists, so it equals t mod (numIn*V) at
// cycle t and needs no stored state.
func (st *simState) vcAlloc(id int32, t int64) {
	base := int(st.portBase[id])
	nIn := int(st.portBase[id+1]) - base
	V := st.V
	start := int(t % int64(nIn*V))
	p0, v0 := start/V, start%V
	// Circular sweep from lane (p0, v0): port p0's lanes at or above
	// v0 first, then each following port with waiting heads, then port
	// p0's lanes below v0. Rotating the port mask right by p0 puts the
	// ports in that order (bit k is port p0+k mod nIn). Grants only
	// clear bits of the port being visited and set no head bit, so
	// each lane is considered exactly once, in sweep order.
	hp := st.headPorts[id]
	ports := (hp>>uint(p0) | hp<<uint(nIn-p0)) & (1<<uint(nIn) - 1) // nIn == 64 wraps to all ones
	for ports != 0 {
		k := bits.TrailingZeros64(ports)
		ports &= ports - 1
		p := p0 + k
		if p >= nIn {
			p -= nIn
		}
		m := st.headMask[base+p]
		if k == 0 {
			m &= ^uint64(0) << uint(v0)
		}
		st.vcAllocPort(id, nIn, p, m, t)
	}
	if m := st.headMask[base+p0] & (1<<uint(v0) - 1); m != 0 {
		st.vcAllocPort(id, nIn, p0, m, t)
	}
}

// vcAllocPort tries to grant an output VC (or the ejection port) to
// each lane of input port p of router id whose bit is set in m, in
// ascending VC order. The output VC granted is the lowest free one of
// the hop's class, the first an ascending owner scan would find.
func (st *simState) vcAllocPort(id int32, nIn, p int, m uint64, t int64) {
	s := st.sim
	base := int(st.portBase[id])
	gp := base + p
	lane := gp * st.V
	for m != 0 {
		v := bits.TrailingZeros64(m)
		m &= m - 1
		vcIdx := lane + v
		head := st.ringFront(vcIdx)
		if head.ready > t {
			continue
		}
		pk := &s.packets[head.pkt]
		op, ov := nIn-1, 0 // ejection needs no VC allocation
		if pk.dst != id {
			h := pk.hops[pk.hop]
			op = int(h.port)
			free := st.ovcFree[base+op] & st.classMask[h.class]
			if free == 0 {
				continue
			}
			ov = bits.TrailingZeros64(free)
			st.ovcFree[base+op] &^= 1 << uint(ov)
		}
		st.outPort[vcIdx] = int16(op)
		st.outVC[vcIdx] = int16(ov)
		st.headMask[gp] &^= 1 << uint(v)
		st.busyMask[gp] |= 1 << uint(v)
		st.busyPorts[id] |= 1 << uint(p)
	}
	if st.headMask[gp] == 0 {
		st.headPorts[id] &^= 1 << uint(p)
	}
}

// switchAllocTraverse performs separable (input-first) switch
// allocation over the flat lanes and moves the winning flits. Input
// arbitration visits only ports with a busyPorts bit and considers
// only lanes with a busyMask bit set (routed with flits buffered),
// scanning that port's bits circularly from its round-robin pointer.
// Instead of walking every (output, input) pair, input arbitration
// records each candidate in a per-output request bitmask, and output
// arbitration resolves each requested port by picking the first
// requester at or cyclically after its round-robin pointer with two
// bit scans — the same winner a nested scan over outputs and then
// inputs grants, because every input requests at most one output and
// grants touch no other input's candidate state.
func (st *simState) switchAllocTraverse(id int32, t int64) {
	base := int(st.portBase[id])
	nIn := int(st.portBase[id+1]) - base
	V := st.V
	ej := nIn - 1
	lane := base * V

	// Input arbitration: one candidate VC per input port, recorded as
	// a request bit on its output port.
	cand := st.saCand[:nIn] // VC index per input port
	reqOps := uint64(0)
	for ports := st.busyPorts[id]; ports != 0; ports &= ports - 1 {
		ip := bits.TrailingZeros64(ports)
		gp := base + ip
		m := st.busyMask[gp]
		rr := uint(st.saInRR[gp])
		vcBase := lane + ip*V
		mm := m >> rr
		off := int(rr)
	scan:
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				mm = m & ((1 << rr) - 1)
				off = 0
			}
			for mm != 0 {
				v := off + bits.TrailingZeros64(mm)
				mm &= mm - 1
				vcIdx := vcBase + v
				if st.ringFront(vcIdx).ready > t {
					continue
				}
				op := int(st.outPort[vcIdx])
				if op != ej && st.credits[(base+op)*V+int(st.outVC[vcIdx])] <= 0 {
					continue
				}
				cand[ip] = int16(v)
				st.saReq[op] |= 1 << uint(ip)
				reqOps |= 1 << uint(op)
				break scan
			}
		}
	}

	// Output arbitration: one winner per requested output port, in
	// ascending port order.
	for reqOps != 0 {
		op := bits.TrailingZeros64(reqOps)
		reqOps &= reqOps - 1
		m := st.saReq[op]
		st.saReq[op] = 0
		rr := int(st.saOutRR[base+op])
		var cip int
		if mh := m >> uint(rr); mh != 0 {
			cip = rr + bits.TrailingZeros64(mh)
		} else {
			cip = bits.TrailingZeros64(m)
		}
		v := int(cand[cip])
		st.traverse(id, cip, v, op, t)
		st.saInRR[base+cip] = int16((v + 1) % V)
		st.saOutRR[base+op] = int16((cip + 1) % nIn)
	}
}

// traverse moves one flit from input VC (ip, v) through output
// port op of router id, scheduling its arrival downstream and the
// freed slot's credit upstream on the timing wheel.
func (st *simState) traverse(id int32, ip, v, op int, t int64) {
	s := st.sim
	base := int(st.portBase[id])
	nIn := int(st.portBase[id+1]) - base
	ej := nIn - 1 // also the injection port's local index
	gp := base + ip
	vcIdx := gp*st.V + v
	f := st.ringPop(vcIdx)
	st.bufFlits[id]--
	s.flitHops++
	pk := &s.packets[f.pkt]
	isTail := int(f.seq) == int(pk.plen)-1
	outVC := st.outVC[vcIdx]
	if isTail || st.ringN[vcIdx] == 0 {
		// A tail releases the route; a non-tail pop that drains the
		// ring leaves the route claimed but nothing to arbitrate until
		// the next body flit arrives. Either way the lane stops being
		// busy.
		st.busyMask[gp] &^= 1 << uint(v)
		if st.busyMask[gp] == 0 {
			st.busyPorts[id] &^= 1 << uint(ip)
		}
		if isTail && st.ringN[vcIdx] > 0 {
			// Another packet's head queued behind the tail is now the
			// (unrouted) front.
			st.headMask[gp] |= 1 << uint(v)
			st.headPorts[id] |= 1 << uint(ip)
		}
	}

	if op == ej {
		s.flitsInFlight--
		s.lastProgress = t
		if f.seq != pk.nextSeq {
			s.orderViolations++
		}
		pk.nextSeq = f.seq + 1
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Trace(Event{Cycle: t, Kind: EvEject, Pkt: f.pkt, Seq: f.seq, Node: id, Peer: -1, VC: int16(v)})
		}
		if t >= s.measureStart && t < s.measureEnd {
			s.winFlits++
		}
		if s.ctl != nil {
			s.ctl.winEjFlits++
			if isTail {
				s.ctl.winLatSum += t + 1 - pk.inject
				s.ctl.winPkts++
			}
		}
		if isTail {
			if pk.measured {
				s.measEjected++
				lat := t + 1 - pk.inject
				s.latencySum += lat
				s.latencies = append(s.latencies, lat)
				if lat > s.latencyMax {
					s.latencyMax = lat
				}
			}
			// The tail has left the network: release the packet slot
			// for reuse (unless tracing pinned the IDs).
			if !s.noPool {
				s.freePkts = append(s.freePkts, f.pkt)
			}
		}
	} else {
		ci := st.outChans[id][op]
		c := &st.chans[ci]
		if f.seq == 0 {
			// The head flit advances to the next router on its path.
			pk.hop++
		}
		slot := int((t + c.latency) & st.calMask)
		k := slot*st.calCap + int(st.calFlitN[slot])
		st.calFlitN[slot]++
		st.calFlits[k] = calFlit{pkt: f.pkt, to: c.to, seq: f.seq, port: c.inPort, vc: outVC}
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Trace(Event{Cycle: t, Kind: EvTraverse, Pkt: f.pkt, Seq: f.seq, Node: id, Peer: c.to, VC: outVC})
		}
		st.credits[(base+op)*st.V+int(outVC)]--
		if t >= s.measureStart && t < s.measureEnd {
			s.linkFlits[ci]++
		}
		s.lastProgress = t
	}

	// Return a credit upstream for the freed buffer slot.
	if ip != ej {
		uc := &st.chans[st.inChans[id][ip]]
		slot := int((t + uc.latency) & st.calMask)
		k := slot*st.calCap + int(st.calCreditN[slot])
		st.calCreditN[slot]++
		st.calCredits[k] = (st.portBase[uc.from]+int32(uc.outPort))*int32(st.V) + int32(v)
	}

	if isTail {
		if op != ej {
			st.ovcFree[base+op] |= 1 << uint(outVC)
		}
		st.outPort[vcIdx] = -1
		st.outVC[vcIdx] = -1
	}
}
