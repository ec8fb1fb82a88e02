package sim

// The retained array-of-structs engine: per-router structs holding
// per-port slices of VC state, exactly the layout the simulator used
// before the structure-of-arrays refactor (see soa.go). It is kept
// solely as the differential oracle — Config.reference selects it,
// only in-package tests and benchmarks do, and the harness in
// differential_test.go pins the SoA engine bit-identical to it across
// every topology family, routing, load, adaptive controller, and
// trace replay. It shares the surrounding run loop, packet pool,
// traffic generation, and statistics with the SoA engine; only the
// per-cycle router pipeline below differs.

// instantiateRef allocates the array-of-structs per-replica state:
// one router struct per tile with its VC rings, credit counters, and
// arbiter pointers, and one flit/credit queue pair per directed
// channel.
func (s *Simulator) instantiateRef(sh *Shape) {
	s.chans = make([]dchan, len(sh.chans))
	for i := range sh.chans {
		cs := &sh.chans[i]
		s.chans[i] = dchan{
			from:    cs.from,
			to:      cs.to,
			outPort: cs.outPort,
			inPort:  cs.inPort,
			latency: cs.latency,
		}
	}
	s.routers = make([]*router, s.n)
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
		s.routers[id] = r
	}
}

// stepRef advances the reference engine by one cycle, visiting every
// router in every phase (no idle skipping beyond each phase's own
// early returns).
func (s *Simulator) stepRef(inject bool) {
	t := s.now

	// Phase 1: deliver flits and credits that arrive this cycle.
	s.deliver(t)

	// Phase 2: traffic generation and source injection.
	if inject {
		s.generate(t)
	}
	for _, r := range s.routers {
		s.injectFlits(r, t)
	}

	// Phase 3: virtual-channel allocation.
	for _, r := range s.routers {
		s.vcAlloc(r, t)
	}

	// Phase 4+5: switch allocation and traversal.
	for _, r := range s.routers {
		s.switchAllocTraverse(r, t)
	}

	s.now++
}

// deliver moves flits and credits whose link latency has elapsed into
// the downstream (respectively upstream) router.
func (s *Simulator) deliver(t int64) {
	for i := range s.chans {
		c := &s.chans[i]
		if c.flits.len() > 0 && c.flits.front().arrive <= t {
			rt := s.routers[c.to]
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
			s.routers[c.from].credits[c.outPort][cr.vc]++
		}
	}
}

// injectFlits moves at most one flit per cycle from the source queue
// into the injection port, choosing a VC of the packet's first hop
// class for each new packet.
func (s *Simulator) injectFlits(r *router, t int64) {
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
		if len(pk.path.Classes) > 0 {
			class = pk.path.Classes[0]
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
// The output port comes from the packet's precomputed port table and
// the path position from its hop counter, so no searches happen here.
func (s *Simulator) vcAlloc(r *router, t int64) {
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
		hi := int(pk.hop)
		class := pk.path.Classes[hi]
		outPort := int(pk.ports[hi])
		lo, hiVC := s.classVCRange(class)
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
func (s *Simulator) switchAllocTraverse(r *router, t int64) {
	if r.bufFlits == 0 {
		return // no requests, no grants, no arbiter state changes
	}
	nIn, nOut := r.numIn(), r.numOut()
	V := s.cfg.NumVCs
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
			s.traverse(r, cip, int(v), op, t)
			r.saInRR[cip] = (int(v) + 1) % V
			r.saOutRR[op] = (cip + 1) % nIn
			break
		}
	}
}

// traverse moves one flit from input VC (ip, v) through output port op.
func (s *Simulator) traverse(r *router, ip, v, op int, t int64) {
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
		c := &s.chans[ci]
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
		uc := &s.chans[r.inChans[ip]]
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
