package sim

// Differential harness for the structure-of-arrays engine: every
// configuration tuple runs once through the SoA engine (the default)
// and once through the retained array-of-structs reference engine
// (reference_test.go), and the two Stats must be bit-identical. The
// sweep reuses the batched harness's corpus machinery (diffFamilies,
// diffCase) so the matrix covers every topology family, both routing
// flavors, the whole load ladder, adaptive control, and trace replay,
// each on one-cycle links and again on seeded 1-7-cycle links that
// wrap the timing wheel, and the synthetic sweep again at router
// pipelines of 1, 3, and 5 cycles, with 4-flit packets and with
// MemPool's 1-flit router. Property tests pin the occupancy bitmap the
// SoA phase scans skip idle routers with, and the port masks, free-VC
// masks, timing wheel, and credit counters.

import (
	"fmt"
	"math/rand"
	"testing"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
	"sparsehamming/internal/trace"
)

// randomLinkLatencies draws a latency of 1-7 cycles for every link of
// tp, indexed like Config.LinkLatency.
func randomLinkLatencies(rng *rand.Rand, tp *topo.Topology) []int {
	lat := make([]int, tp.NumLinks())
	for i := range lat {
		lat[i] = 1 + rng.Intn(7)
	}
	return lat
}

// soaOf returns the SoA engine state of a simulator built by New.
func soaOf(s *Simulator) *simState { return s.eng.(*simState) }

// runBothEngines runs one config through the SoA engine and the
// reference engine and returns both Stats.
func runBothEngines(t *testing.T, cfg Config) (soa, ref Stats) {
	t.Helper()
	soaStats, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("SoA run: %v", err)
	}
	refStats, err := runRef(cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return soaStats, refStats
}

// pipelineDelays are the router pipeline depths the differential
// sweep adds to its base 2-cycle cases: the shortest, the toolchain's
// 3, and a deeper one.
var pipelineDelays = []int{1, 3, 5}

// withMemPoolRouter returns cfg with MemPool's router configuration:
// 1-flit packets, 2 VCs (or one per VC class), 2-flit buffers.
func withMemPoolRouter(cfg Config) Config {
	cfg.PacketLen, cfg.NumVCs, cfg.BufDepth = 1, max(2, cfg.Routing.NumClasses), 2
	return cfg
}

// TestSoAMatchesReferenceDifferential sweeps the full configuration
// matrix — every topology family, both routings, the load ladder,
// control off and on, one-cycle and multi-cycle links, router
// pipelines of 1-5 cycles, and both the 4-flit-packet router and
// MemPool's 1-flit one — and asserts the SoA engine reproduces the
// reference engine's Stats bit for bit (Stats is all-scalar, so == is
// a field-by-field bit-identity check).
func TestSoAMatchesReferenceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x50A0D1FF))
	latRng := rand.New(rand.NewSource(0x1A7E7C1E))
	// The pipeline cases draw their link latencies from their own RNG,
	// so the base cases keep their draws.
	pipeRng := rand.New(rand.NewSource(0x919E11E5))
	patterns := PatternNames()
	loads := diffLoads
	if testing.Short() {
		loads = []float64{0.08, 0.9}
	}

	total, pipes := 0, 0
	for _, fam := range diffFamilies {
		tp, err := topo.ByName(fam.kind, fam.rows, fam.cols, fam.sr, fam.sc)
		if err != nil {
			t.Fatalf("topology %s: %v", fam.kind, err)
		}
		for _, routing := range diffRoutings {
			rt, err := route.ForName(tp, routing)
			if err != nil {
				t.Fatalf("routing %q on %s: %v", routing, fam.kind, err)
			}
			for li, load := range loads {
				pattern := patterns[rng.Intn(len(patterns))]
				if _, err := PatternByName(pattern, fam.rows, fam.cols); err != nil {
					pattern = "uniform" // pattern unsupported on this grid
				}
				dc := diffCase{
					family:  fam,
					routing: routing,
					pattern: pattern,
					load:    load,
					seed:    rng.Int63n(1 << 32),
					control: li%2 == 1, // alternate fixed and adaptive
				}
				cfg := dc.diffConfig(t, tp, rt)
				for _, lat := range [][]int{nil, randomLinkLatencies(latRng, tp)} {
					cfg.LinkLatency = lat
					soa, ref := runBothEngines(t, cfg)
					total++
					if soa != ref {
						t.Errorf("%s routing=%q %+v latencies=%v:\nSoA       %+v\nreference %+v",
							fam.kind, routing, dc, lat, soa, ref)
					}
				}
				for di, delay := range pipelineDelays {
					// Each router configuration alternates between
					// one-cycle and multi-cycle links across delays.
					for i, pc := range []Config{cfg, withMemPoolRouter(cfg)} {
						pc.RouterDelay = delay
						pc.LinkLatency = nil
						if (i+di)%2 == 1 {
							pc.LinkLatency = randomLinkLatencies(pipeRng, tp)
						}
						soa, ref := runBothEngines(t, pc)
						pipes++
						if soa != ref {
							t.Errorf("%s routing=%q %+v delay=%d packet=%d vcs=%d depth=%d latencies=%v:\nSoA       %+v\nreference %+v",
								fam.kind, routing, dc, delay, pc.PacketLen, pc.NumVCs, pc.BufDepth, pc.LinkLatency, soa, ref)
						}
					}
				}
			}
		}
	}
	if want := 2 * len(diffFamilies) * len(diffRoutings) * len(loads); total < want {
		t.Fatalf("sweep covered %d configurations, want %d", total, want)
	}
	if want := 2 * len(pipelineDelays) * len(diffFamilies) * len(diffRoutings) * len(loads); pipes < want {
		t.Fatalf("sweep covered %d pipeline configurations, want %d", pipes, want)
	}
	t.Logf("verified %d configurations and %d pipeline configurations SoA == reference", total, pipes)
}

// TestSoAMatchesReferenceReplay extends the engine differential to
// trace-driven injection: replayed application traces at several time
// scales, with and without adaptive control, on one-cycle and
// multi-cycle links, must eject the same flits on the same cycles in
// both engines.
func TestSoAMatchesReferenceReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(0x50A7EACE))
	latRng := rand.New(rand.NewSource(0x1A7EAC1E))
	generators := trace.GeneratorNames()
	scales := []float64{0.25, 1.0}

	total := 0
	for i, g := range generators {
		tr, err := trace.Generate(g, trace.GenConfig{
			Rows: 4, Cols: 4, Cycles: 1200, Seed: int64(300 + i), Rate: 0.3,
		})
		if err != nil {
			t.Fatalf("generate %s: %v", g, err)
		}
		replay, err := NewReplay(g, tr)
		if err != nil {
			t.Fatalf("replay %s: %v", g, err)
		}
		fam := diffFamilies[i%len(diffFamilies)]
		if fam.rows != 4 || fam.cols != 4 {
			fam = diffFamilies[1] // mesh; the traces are 4x4
		}
		tp, err := topo.ByName(fam.kind, fam.rows, fam.cols, fam.sr, fam.sc)
		if err != nil {
			t.Fatalf("topology %s: %v", fam.kind, err)
		}
		rt, err := route.ForName(tp, "")
		if err != nil {
			t.Fatalf("routing on %s: %v", fam.kind, err)
		}
		for _, scale := range scales {
			cfg := Config{
				Topo: tp, Routing: rt,
				NumVCs: 4, BufDepth: 8,
				RouterDelay: 2, PacketLen: 4,
				InjectionRate: scale,
				Pattern:       replay,
				Seed:          rng.Int63n(1 << 32),
				Warmup:        200, Measure: 500, Drain: 1500,
			}
			if rt.NumClasses > cfg.NumVCs {
				cfg.NumVCs = rt.NumClasses
			}
			if total%4 >= 2 {
				cfg.Control = &Control{Window: 50, RelHalfWidth: 0.05}
			}
			for _, lat := range [][]int{nil, randomLinkLatencies(latRng, tp)} {
				cfg.LinkLatency = lat
				soa, ref := runBothEngines(t, cfg)
				total++
				if soa != ref {
					t.Errorf("%s replay %s scale=%g latencies=%v:\nSoA       %+v\nreference %+v",
						fam.kind, g, scale, lat, soa, ref)
				}
			}
		}
	}
	if total < 4*len(generators) {
		t.Fatalf("replay sweep covered %d configurations, want %d", total, 4*len(generators))
	}
	t.Logf("verified %d trace-driven configurations SoA == reference", total)
}

// TestOccupancyBitmapTracksActiveRouters is the property test behind
// the SoA engine's idle-router skipping: after every cycle, a
// router's occupancy bit is set if and only if it has queued source
// packets or buffered flits — so the word-granular skip-scan visits
// exactly the non-idle routers, and skipping the rest cannot drop
// work.
func TestOccupancyBitmapTracksActiveRouters(t *testing.T) {
	m, err := topo.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		t.Fatal(err)
	}
	// A bursty pattern at moderate load drives routers in and out of
	// idleness; the trailing injection-off stretch drains the network
	// so the test also sees occupancy fall back to zero.
	s, err := New(Config{
		Topo: m, Routing: r, NumVCs: 4, BufDepth: 8,
		RouterDelay: 2, PacketLen: 4, InjectionRate: 0.2,
		Seed: 7, Warmup: 1 << 30, Measure: 1, Drain: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s.eng.(*simState)
	if !ok {
		t.Fatalf("New built a %T engine, want the SoA engine", s.eng)
	}
	check := func(cycle int, phase string) {
		for id := 0; id < s.n; id++ {
			active := st.srcQ[id].len() > 0 || st.bufFlits[id] > 0
			bit := st.occ[id>>6]&(1<<(uint(id)&63)) != 0
			if bit != active {
				t.Fatalf("cycle %d (%s): router %d occupancy bit %v, but srcQ=%d bufFlits=%d",
					cycle, phase, id, bit, st.srcQ[id].len(), st.bufFlits[id])
			}
		}
	}
	for i := 0; i < 3000; i++ {
		s.step(true)
		check(i, "inject")
	}
	// Injection off: the network drains and every bit must clear.
	for i := 0; i < 2000; i++ {
		s.step(false)
		check(i, "drain")
	}
	for w, word := range st.occ {
		if word != 0 {
			t.Fatalf("occupancy word %d = %#x after full drain, want 0", w, word)
		}
	}
	if s.flitsInFlight != 0 {
		t.Fatalf("%d flits in flight after drain", s.flitsInFlight)
	}
}

// checkMaskInvariants verifies the summary masks the SoA allocators
// scan against the lane state they summarize: every headPorts and
// busyPorts bit against its port's headMask and busyMask word, and
// every ovcFree bit against the input lanes' output-VC grants.
func checkMaskInvariants(t *testing.T, s *Simulator, cycle int) {
	t.Helper()
	st := soaOf(s)
	owned := make([]uint64, len(st.ovcFree))
	for id := 0; id < s.n; id++ {
		base := int(st.portBase[id])
		nIn := int(st.portBase[id+1]) - base
		for p := 0; p < nIn; p++ {
			gp := base + p
			if got, want := st.headPorts[id]>>uint(p)&1 == 1, st.headMask[gp] != 0; got != want {
				t.Fatalf("cycle %d: router %d port %d headPorts bit %v, headMask %#x", cycle, id, p, got, st.headMask[gp])
			}
			if got, want := st.busyPorts[id]>>uint(p)&1 == 1, st.busyMask[gp] != 0; got != want {
				t.Fatalf("cycle %d: router %d port %d busyPorts bit %v, busyMask %#x", cycle, id, p, got, st.busyMask[gp])
			}
			for v := 0; v < st.V; v++ {
				if op := int(st.outPort[gp*st.V+v]); op >= 0 && op != nIn-1 {
					owned[base+op] |= 1 << uint(st.outVC[gp*st.V+v])
				}
			}
		}
		for p := nIn; p < 64; p++ {
			if (st.headPorts[id]|st.busyPorts[id])>>uint(p)&1 == 1 {
				t.Fatalf("cycle %d: router %d has a port-mask bit for nonexistent port %d", cycle, id, p)
			}
		}
	}
	all := uint64(1)<<uint(st.V) - 1
	for id := 0; id < s.n; id++ {
		base := int(st.portBase[id])
		ej := int(st.portBase[id+1]) - 1
		for gp := base; gp < ej; gp++ {
			if st.ovcFree[gp] != all&^owned[gp] {
				t.Fatalf("cycle %d: router %d port %d ovcFree %#x, granted VCs %#x",
					cycle, id, gp-base, st.ovcFree[gp], owned[gp])
			}
		}
	}
}

// TestTimingWheelAndMasksDrainClean runs a loaded network on
// multi-cycle links until it is empty, at router pipelines of 1-3
// cycles, and checks the SoA engine's summary state throughout: the
// wheel has a slot for every cycle a flit can spend on it (link plus
// pipeline), the port masks and free-VC masks agree with the lanes
// after every cycle, and once the last flit has ejected and the
// longest link latency has passed, every timing-wheel slot is empty —
// link flits, injected flits, and credits — every injection lane has
// no flit left in its pipeline, and every credit counter is back at
// BufDepth: no flit or credit was lost, duplicated, or delivered to
// the wrong lane.
func TestTimingWheelAndMasksDrainClean(t *testing.T) {
	for _, fam := range []diffFamily{diffFamilies[1], diffFamilies[6], diffFamilies[7]} {
		tp, err := topo.ByName(fam.kind, fam.rows, fam.cols, fam.sr, fam.sc)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := route.For(tp, route.Auto)
		if err != nil {
			t.Fatal(err)
		}
		lat := randomLinkLatencies(rand.New(rand.NewSource(0x7E1)), tp)
		maxLat := 0
		for _, l := range lat {
			maxLat = max(maxLat, l)
		}
		for _, delay := range []int{2, 1, 3} {
			checkDrainClean(t, fam.kind, Config{
				Topo: tp, Routing: rt, NumVCs: 4, BufDepth: 8,
				RouterDelay: delay, PacketLen: 4, InjectionRate: 0.4,
				LinkLatency: lat, Seed: 3, Warmup: 1 << 30, Measure: 1, Drain: 1,
			}, maxLat)
		}
	}
}

// checkDrainClean runs cfg loaded for 2000 cycles, drains it, and
// checks the SoA engine's summary state (see
// TestTimingWheelAndMasksDrainClean).
func checkDrainClean(t *testing.T, kind string, cfg Config, maxLat int) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := soaOf(s)
	name := fmt.Sprintf("%s delay=%d", kind, cfg.RouterDelay)
	if slots, pipe := int(st.calMask)+1, maxLat+cfg.RouterDelay; slots <= pipe || slots&(slots-1) != 0 {
		t.Fatalf("%s: %d wheel slots for a largest latency of %d plus a %d-cycle pipeline, want a power of two above %d",
			name, slots, maxLat, cfg.RouterDelay, pipe)
	}
	cycle := 0
	for ; cycle < 2000; cycle++ {
		s.step(true)
		checkMaskInvariants(t, s, cycle)
	}
	for s.flitsInFlight > 0 || s.backlog() > 0 {
		if cycle > 20000 {
			t.Fatalf("%s: network did not drain (%d flits in flight)", name, s.flitsInFlight)
		}
		s.step(false)
		checkMaskInvariants(t, s, cycle)
		cycle++
	}
	// The last credits are still on the wire for up to maxLat cycles.
	for i := 0; i < maxLat; i++ {
		s.step(false)
	}
	for slot := range st.calFlitN {
		if st.calFlitN[slot] != 0 || st.calInjN[slot] != 0 || st.calCreditN[slot] != 0 {
			t.Errorf("%s: wheel slot %d holds %d link flits, %d injected flits, %d credits after the drain",
				name, slot, st.calFlitN[slot], st.calInjN[slot], st.calCreditN[slot])
		}
	}
	for i, n := range st.injPend {
		if n != 0 {
			t.Fatalf("%s: router %d VC %d has %d injected flits in its pipeline after the drain", name, i/st.V, i%st.V, n)
		}
	}
	for i, c := range st.credits {
		if int(c) != st.D {
			t.Fatalf("%s: lane %d has %d credits after the drain, want %d", name, i, c, st.D)
		}
	}
	for gp := range st.headMask {
		if st.headMask[gp]|st.busyMask[gp] != 0 {
			t.Fatalf("%s: port %d head/busy masks %#x/%#x after the drain",
				name, gp, st.headMask[gp], st.busyMask[gp])
		}
	}
	checkMaskInvariants(t, s, cycle)
}
