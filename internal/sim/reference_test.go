package sim

// The retained array-of-structs engine: per-router structs holding
// per-port slices of VC state, exactly the layout the simulator used
// before the structure-of-arrays engine (soa.go). It lives only in the
// tests, as the differential oracle: newRef attaches it to a replica
// through the engine seam, and soa_test.go pins the SoA engine
// bit-identical to it across every topology family, routing, load,
// adaptive controller, and trace replay. It shares the surrounding
// run loop, packet pool, traffic generation, and statistics with the
// SoA engine; only the per-cycle router pipeline below differs.

// refEngine is the reference engine's per-replica state: one router
// struct per tile and the flit and credit queues of every directed
// channel.
type refEngine struct {
	sim     *Simulator
	routers []*router
	chans   []dchan
}

// newRef builds a replica of cfg like New, running the reference
// engine instead of the SoA engine.
func newRef(cfg Config) (*Simulator, error) {
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sh := newShape(&cfg)
	s := sh.newReplica(&cfg)
	s.eng = newRefEngine(s, sh)
	return s, nil
}

// runRef builds and runs cfg on the reference engine, like RunConfig.
func runRef(cfg Config) (Stats, error) {
	s, err := newRef(cfg)
	if err != nil {
		return Stats{}, err
	}
	return s.Run(), nil
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

// dchan is one directed channel between two routers, with its flit
// and credit queues (the SoA engine keeps in-flight flits and credits
// in its timing wheel instead).
type dchan struct {
	from, to int32
	outPort  int16 // output port index at from
	inPort   int16 // input port index at to
	latency  int64
	flits    queue[timedFlit]
	credits  queue[timedCredit]
}

// flitRef is one flit buffered in a reference-engine VC: packet
// index, sequence number, and the cycle its router pipeline ends. The
// reference engine buffers a flit on arrival and skips it until then;
// the SoA engine instead holds it on the timing wheel until that cycle
// (see soa.go).
type flitRef struct {
	pkt   int32
	seq   int16
	ready int64 // earliest cycle the flit may leave this router
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

// newRefEngine allocates the array-of-structs per-replica state of s:
// one router struct per tile with its VC rings, credit counters, and
// arbiter pointers, and one flit/credit queue pair per directed
// channel.
func newRefEngine(s *Simulator, sh *Shape) *refEngine {
	e := &refEngine{sim: s}
	e.chans = make([]dchan, len(sh.chans))
	for i := range sh.chans {
		cs := &sh.chans[i]
		e.chans[i] = dchan{
			from:    cs.from,
			to:      cs.to,
			outPort: cs.outPort,
			inPort:  cs.inPort,
			latency: cs.latency,
		}
	}
	e.routers = make([]*router, s.n)
	for id := 0; id < s.n; id++ {
		deg := len(sh.inChans[id])
		r := &router{
			id: int32(id),
			// The channel wiring is read-only; share the shape's slices.
			inChans:  sh.inChans[id],
			outChans: sh.outChans[id],
			injVC:    -1,
		}
		r.vcs = make([][]vcState, deg+1)
		for p := range r.vcs {
			r.vcs[p] = make([]vcState, s.cfg.NumVCs)
			for v := range r.vcs[p] {
				r.vcs[p][v].buf.init(s.cfg.BufDepth)
				r.vcs[p][v].outPort = -1
				r.vcs[p][v].outVC = -1
			}
		}
		r.credits = make([][]int16, deg+1)
		r.ovcOwner = make([][]int32, deg+1)
		for o := range r.credits {
			r.credits[o] = make([]int16, s.cfg.NumVCs)
			r.ovcOwner[o] = make([]int32, s.cfg.NumVCs)
			for v := range r.credits[o] {
				r.credits[o][v] = int16(s.cfg.BufDepth)
				r.ovcOwner[o][v] = -1
			}
		}
		r.vaRR = make([]int, deg+1)
		r.saInRR = make([]int, deg+1)
		r.saOutRR = make([]int, deg+1)
		r.saCand = make([]int16, deg+1)
		e.routers[id] = r
	}
	return e
}

// advance runs phases 2-5 of cycle t, visiting every router in every
// phase (no idle skipping beyond each phase's own early returns).
func (e *refEngine) advance(t int64) {
	// Phase 2: source injection.
	for _, r := range e.routers {
		e.injectFlits(r, t)
	}

	// Phase 3: virtual-channel allocation.
	for _, r := range e.routers {
		e.vcAlloc(r, t)
	}

	// Phase 4+5: switch allocation and traversal.
	for _, r := range e.routers {
		e.switchAllocTraverse(r, t)
	}
}

// enqueue queues packet pid at its source router.
func (e *refEngine) enqueue(src, pid int32) { e.routers[src].srcQ.push(pid) }

// queued returns the number of packets waiting in source queues.
func (e *refEngine) queued() int64 {
	n := int64(0)
	for _, r := range e.routers {
		n += int64(r.srcQ.len())
	}
	return n
}

// deliver moves flits and credits whose link latency has elapsed into
// the downstream (respectively upstream) router.
func (e *refEngine) deliver(t int64) {
	s := e.sim
	for i := range e.chans {
		c := &e.chans[i]
		if c.flits.len() > 0 && c.flits.front().arrive <= t {
			rt := e.routers[c.to]
			for c.flits.len() > 0 && c.flits.front().arrive <= t {
				f := c.flits.pop()
				vc := &rt.vcs[c.inPort][f.vc]
				vc.buf.push(flitRef{pkt: f.pkt, seq: f.seq, ready: t + int64(s.cfg.RouterDelay)})
				rt.bufFlits++
				if f.seq == 0 {
					rt.needRoute++
				}
			}
		}
		for c.credits.len() > 0 && c.credits.front().arrive <= t {
			cr := c.credits.pop()
			e.routers[c.from].credits[c.outPort][cr.vc]++
		}
	}
}

// injectFlits moves at most one flit per cycle from the source queue
// into the injection port, choosing a VC of the packet's first hop
// class for each new packet.
func (e *refEngine) injectFlits(r *router, t int64) {
	s := e.sim
	if r.srcQ.len() == 0 {
		return
	}
	inj := r.injPort()
	if r.injVC < 0 {
		// Pick the emptiest VC of the packet's first-hop class.
		// Injection is serialized packet-by-packet, so packets queued
		// in the same VC never interleave flits.
		pk := &s.packets[*r.srcQ.front()]
		class := int8(0)
		if len(pk.hops) > 0 {
			class = pk.hops[0].class
		}
		lo, hi := s.classVCRange(class)
		best, bestFree := -1, 0
		for v := lo; v < hi; v++ {
			if free := s.cfg.BufDepth - r.vcs[inj][v].buf.len(); free > bestFree {
				best, bestFree = v, free
			}
		}
		if best < 0 {
			return
		}
		r.injVC = int16(best)
		r.injSeq = 0
	}
	vc := &r.vcs[inj][r.injVC]
	if vc.buf.len() >= s.cfg.BufDepth {
		return
	}
	pid := *r.srcQ.front()
	vc.buf.push(flitRef{pkt: pid, seq: r.injSeq, ready: t + int64(s.cfg.RouterDelay)})
	r.bufFlits++
	if r.injSeq == 0 {
		r.needRoute++
	}
	s.flitsInFlight++
	// A flit entering the network is forward progress: without this the
	// watchdog would mistake a long injection silence (bursty traces;
	// never Bernoulli traffic) followed by one injection for a deadlock.
	s.lastProgress = t
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Trace(Event{Cycle: t, Kind: EvInject, Pkt: pid, Seq: r.injSeq, Node: r.id, Peer: s.packets[pid].dst, VC: r.injVC})
	}
	r.injSeq++
	if int(r.injSeq) == int(s.packets[pid].plen) {
		r.srcQ.pop()
		r.injVC = -1
	}
}

// vcAlloc performs separable VC allocation: every input VC whose head
// is an unrouted head flit requests an output VC of its path's class;
// output VCs are granted first-come in round-robin order over inputs.
// The output port and VC class come from the packet's precomputed hop
// table and the path position from its hop counter, so no searches
// happen here.
func (e *refEngine) vcAlloc(r *router, t int64) {
	s := e.sim
	nIn := r.numIn()
	V := s.cfg.NumVCs
	total := nIn * V
	start := r.vaRR[0] % total
	r.vaRR[0] = (start + 1) % total
	if r.needRoute == 0 {
		return // no unrouted head flits buffered anywhere
	}
	ip, v := start/V, start%V
	for k := 0; k < total; k++ {
		enc := ip*V + v
		vc := &r.vcs[ip][v]
		v++
		if v == V {
			v = 0
			ip++
			if ip == nIn {
				ip = 0
			}
		}
		if vc.outVC >= 0 || vc.outPort >= 0 || vc.buf.len() == 0 {
			continue
		}
		head := vc.buf.front()
		if head.seq != 0 || head.ready > t {
			continue
		}
		pk := &s.packets[head.pkt]
		if pk.dst == r.id {
			// Ejection needs no VC allocation.
			vc.outPort = int16(r.ejPort())
			vc.outVC = 0
			r.needRoute--
			continue
		}
		h := pk.hops[pk.hop]
		outPort := int(h.port)
		lo, hiVC := s.classVCRange(h.class)
		for ov := lo; ov < hiVC; ov++ {
			if r.ovcOwner[outPort][ov] < 0 {
				r.ovcOwner[outPort][ov] = int32(enc)
				vc.outPort = int16(outPort)
				vc.outVC = int16(ov)
				r.needRoute--
				break
			}
		}
	}
}

// switchAllocTraverse performs separable (input-first) switch
// allocation and moves the winning flits. Routers with no buffered
// flits return immediately; the candidate scratch is preallocated.
func (e *refEngine) switchAllocTraverse(r *router, t int64) {
	if r.bufFlits == 0 {
		return // no requests, no grants, no arbiter state changes
	}
	nIn, nOut := r.numIn(), r.numOut()
	V := e.sim.cfg.NumVCs
	ej := r.ejPort()

	// Input arbitration: one candidate VC per input port.
	cand := r.saCand // VC index or -1
	found := false
	for ip := 0; ip < nIn; ip++ {
		cand[ip] = -1
		v := r.saInRR[ip]
		for k := 0; k < V; k++ {
			vc := &r.vcs[ip][v]
			cv := v
			v++
			if v == V {
				v = 0
			}
			if vc.outPort < 0 || vc.buf.len() == 0 {
				continue
			}
			head := vc.buf.front()
			if head.ready > t {
				continue
			}
			if int(vc.outPort) != ej && r.credits[vc.outPort][vc.outVC] <= 0 {
				continue
			}
			cand[ip] = int16(cv)
			found = true
			break
		}
	}
	if !found {
		return
	}

	// Output arbitration: one winner per output port.
	for op := 0; op < nOut; op++ {
		ip := r.saOutRR[op]
		for k := 0; k < nIn; k++ {
			cip := ip
			ip++
			if ip == nIn {
				ip = 0
			}
			v := cand[cip]
			if v < 0 || int(r.vcs[cip][v].outPort) != op {
				continue
			}
			e.traverse(r, cip, int(v), op, t)
			r.saInRR[cip] = (int(v) + 1) % V
			r.saOutRR[op] = (cip + 1) % nIn
			break
		}
	}
}

// traverse moves one flit from input VC (ip, v) through output port op.
func (e *refEngine) traverse(r *router, ip, v, op int, t int64) {
	s := e.sim
	vc := &r.vcs[ip][v]
	f := vc.buf.pop()
	r.bufFlits--
	s.flitHops++
	pk := &s.packets[f.pkt]
	isTail := int(f.seq) == int(pk.plen)-1

	if op == r.ejPort() {
		s.flitsInFlight--
		s.lastProgress = t
		if f.seq != pk.nextSeq {
			s.orderViolations++
		}
		pk.nextSeq = f.seq + 1
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Trace(Event{Cycle: t, Kind: EvEject, Pkt: f.pkt, Seq: f.seq, Node: r.id, Peer: -1, VC: int16(v)})
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
		ci := r.outChans[op]
		c := &e.chans[ci]
		if f.seq == 0 {
			// The head flit advances to the next router on its path.
			pk.hop++
		}
		c.flits.push(timedFlit{pkt: f.pkt, seq: f.seq, vc: vc.outVC, arrive: t + c.latency})
		if s.cfg.Tracer != nil {
			s.cfg.Tracer.Trace(Event{Cycle: t, Kind: EvTraverse, Pkt: f.pkt, Seq: f.seq, Node: r.id, Peer: c.to, VC: vc.outVC})
		}
		r.credits[op][vc.outVC]--
		if t >= s.measureStart && t < s.measureEnd {
			s.linkFlits[ci]++
		}
		s.lastProgress = t
	}

	// Return a credit upstream for the freed buffer slot.
	if ip != r.injPort() {
		uc := &e.chans[r.inChans[ip]]
		uc.credits.push(timedCredit{vc: int16(v), arrive: t + uc.latency})
	}

	if isTail {
		if op != r.ejPort() {
			r.ovcOwner[op][vc.outVC] = -1
		}
		vc.outPort = -1
		vc.outVC = -1
	}
}
