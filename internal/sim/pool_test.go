package sim

// Tests for the zero-allocation machinery: the packet free list, the
// fixed-capacity VC rings, the steady-state allocation guard, and the
// pooled-vs-unpooled equivalence regression.

import (
	"testing"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

func TestFlitRing(t *testing.T) {
	var q flitRing
	q.init(4)
	if q.len() != 0 {
		t.Fatalf("fresh ring len %d", q.len())
	}
	// Fill, drain halfway, refill: exercises wraparound.
	for i := 0; i < 3; i++ {
		q.push(flitRef{pkt: int32(i)})
	}
	if got := q.pop(); got.pkt != 0 {
		t.Fatalf("pop = %d, want 0", got.pkt)
	}
	if got := q.pop(); got.pkt != 1 {
		t.Fatalf("pop = %d, want 1", got.pkt)
	}
	for i := 3; i < 6; i++ {
		q.push(flitRef{pkt: int32(i)})
	}
	if q.len() != 4 {
		t.Fatalf("len = %d, want 4 (full)", q.len())
	}
	if q.front().pkt != 2 {
		t.Fatalf("front = %d, want 2", q.front().pkt)
	}
	for want := int32(2); want < 6; want++ {
		if got := q.pop(); got.pkt != want {
			t.Fatalf("pop = %d, want %d", got.pkt, want)
		}
	}
	if q.len() != 0 {
		t.Fatalf("len = %d after drain, want 0", q.len())
	}

	// Pushing past capacity must panic: credit flow control is
	// supposed to make that impossible.
	for i := 0; i < 4; i++ {
		q.push(flitRef{})
	}
	defer func() {
		if recover() == nil {
			t.Error("overflow push did not panic")
		}
	}()
	q.push(flitRef{})
}

// TestPacketPoolReuseAfterRelease checks the free-list accounting on
// a fully drained run: every packet slot is released exactly once,
// and the slot array is bounded by the live-packet high-water mark
// rather than the total packet count.
func TestPacketPoolReuseAfterRelease(t *testing.T) {
	m, err := topo.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Topo: m, Routing: r, NumVCs: 4, BufDepth: 8,
		RouterDelay: 2, PacketLen: 4, InjectionRate: 0.2,
		Seed: 11, Warmup: 1, Measure: 6000, Drain: 50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Run()
	if st.Deadlocked {
		t.Fatal("deadlocked")
	}
	if st.MeasuredEjected != st.MeasuredInjected {
		t.Fatalf("undrained: %d of %d ejected", st.MeasuredEjected, st.MeasuredInjected)
	}

	// Fully drained: every slot must be back on the free list,
	// exactly once.
	if got, want := len(s.freePkts), len(s.packets); got != want {
		t.Errorf("free list has %d slots, want %d (double/missed release)", got, want)
	}
	seen := make(map[int32]bool, len(s.freePkts))
	for _, pid := range s.freePkts {
		if seen[pid] {
			t.Fatalf("packet slot %d released twice", pid)
		}
		seen[pid] = true
	}

	// The slot array must reflect peak liveness, not throughput: the
	// run injected st.MeasuredInjected packets (the measurement window
	// spans the whole injection phase here) but only a fraction is
	// ever alive at once.
	if int64(len(s.packets)) > st.MeasuredInjected/2 {
		t.Errorf("slot array holds %d slots for %d injected packets — pooling is not reusing slots",
			len(s.packets), st.MeasuredInjected)
	}
	if st.OrderViolations != 0 {
		t.Errorf("%d order violations with slot reuse", st.OrderViolations)
	}
}

// TestStepSteadyStateAllocFree is the AllocsPerRun == 0 guard on the
// hot path: once warmed up, advancing the network must not allocate —
// in either engine (the structure-of-arrays engine and the test-only
// array-of-structs reference).
func TestStepSteadyStateAllocFree(t *testing.T) {
	m, err := topo.NewMesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []bool{false, true} {
		for _, rate := range []float64{0.05, 0.3, 0.9} {
			cfg := Config{
				Topo: m, Routing: r, NumVCs: 8, BufDepth: 32,
				RouterDelay: 3, PacketLen: 4, InjectionRate: rate,
				// Keep the whole exercise inside the warmup phase so the
				// drain/measure schedule never interferes.
				Seed: 5, Warmup: 1 << 30, Measure: 1, Drain: 1,
			}
			build := New
			if ref {
				build = newRef
			}
			s, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Reach steady state: queues and the free list grow to their
			// high-water marks.
			for i := 0; i < 5000; i++ {
				s.step(true)
			}
			if allocs := testing.AllocsPerRun(300, func() { s.step(true) }); allocs != 0 {
				t.Errorf("reference=%v rate %v: steady-state step allocates %v times per cycle, want 0",
					ref, rate, allocs)
			}
		}
	}
}

// TestPooledMatchesUnpooled is the regression guard for slot reuse:
// an engine recycling packet slots must produce bit-identical Stats
// to one that never recycles (noPool, the mode tracing uses).
func TestPooledMatchesUnpooled(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (*topo.Topology, error)
		rate float64
	}{
		{"mesh-low", func() (*topo.Topology, error) { return topo.NewMesh(4, 4) }, 0.05},
		{"mesh-sat", func() (*topo.Topology, error) { return topo.NewMesh(4, 4) }, 0.6},
		{"torus", func() (*topo.Topology, error) { return topo.NewTorus(4, 4) }, 0.3},
		{"shg", func() (*topo.Topology, error) {
			return topo.NewSparseHamming(4, 4, topo.HammingParams{SR: []int{2}, SC: []int{3}})
		}, 0.3},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			tp, err := c.mk()
			if err != nil {
				t.Fatal(err)
			}
			r, err := route.For(tp, route.Auto)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Topo: tp, Routing: r, NumVCs: 4, BufDepth: 8,
				RouterDelay: 2, PacketLen: 4, InjectionRate: c.rate,
				Seed: 42, Warmup: 500, Measure: 2000, Drain: 8000,
			}
			pooled, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			unpooled, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			unpooled.noPool = true

			a, b := pooled.Run(), unpooled.Run()
			if a != b {
				t.Errorf("pooled and unpooled runs diverge:\npooled:   %+v\nunpooled: %+v", a, b)
			}
			if unpooled.noPool && len(unpooled.freePkts) != 0 {
				t.Error("unpooled engine populated its free list")
			}
			if int64(len(unpooled.packets)) <= int64(len(pooled.packets)) && c.rate >= 0.3 {
				t.Errorf("pooling did not shrink the slot array: pooled %d, unpooled %d",
					len(pooled.packets), len(unpooled.packets))
			}
		})
	}
}
