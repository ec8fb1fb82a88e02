package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

// testConfig returns a builder for a small, fast configuration at
// the given injection rate.
func testConfig(t *testing.T, rate float64) func(*topo.Topology, error) Config {
	return func(tp *topo.Topology, terr error) Config {
		t.Helper()
		if terr != nil {
			t.Fatalf("topology: %v", terr)
		}
		return buildConfig(t, tp, rate)
	}
}

func buildConfig(t *testing.T, tp *topo.Topology, rate float64) Config {
	t.Helper()
	r, err := route.For(tp, route.Auto)
	if err != nil {
		t.Fatalf("routing: %v", err)
	}
	return Config{
		Topo:          tp,
		Routing:       r,
		NumVCs:        4,
		BufDepth:      8,
		RouterDelay:   2,
		PacketLen:     4,
		InjectionRate: rate,
		Seed:          42,
		Warmup:        500,
		Measure:       2000,
		Drain:         8000,
	}
}

func TestLowLoadDelivery(t *testing.T) {
	cfg := testConfig(t, 0.05)(topo.NewMesh(4, 4))
	st, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked {
		t.Fatal("deadlock at low load")
	}
	if st.MeasuredInjected == 0 {
		t.Fatal("no packets injected")
	}
	if got := st.DeliveredFraction(); got < 0.999 {
		t.Errorf("delivered fraction = %v, want ~1 at low load", got)
	}
	if st.AvgPacketLatency <= 0 {
		t.Error("latency not measured")
	}
}

func TestZeroLoadLatencyComposition(t *testing.T) {
	// At zero load, latency must be at least
	// avgHops*(routerDelay+linkLat) + serialization, and not wildly more.
	m, _ := topo.NewMesh(4, 4)
	r, _ := route.For(m, route.Auto)
	cfg := Config{
		Topo: m, Routing: r,
		NumVCs: 4, BufDepth: 8, RouterDelay: 2, PacketLen: 4,
		Seed: 1, Measure: 20000, Drain: 5000,
	}
	zl, err := ZeroLoadLatency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	avgHops := r.AvgHops()
	// Each hop: routerDelay + 1 cycle link; injection router adds one
	// more pipeline; serialization adds PacketLen-1.
	minLat := avgHops*(2+1) + float64(4-1)
	if zl < minLat*0.9 {
		t.Errorf("zero-load latency %v below physical floor %v", zl, minLat)
	}
	if zl > minLat*3 {
		t.Errorf("zero-load latency %v suspiciously high (floor %v)", zl, minLat)
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	var prev float64
	for i, rate := range []float64{0.02, 0.25} {
		cfg := testConfig(t, rate)(topo.NewMesh(4, 4))
		st, err := RunConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Deadlocked {
			t.Fatalf("deadlock at rate %v", rate)
		}
		if i > 0 && st.AvgPacketLatency <= prev {
			t.Errorf("latency at rate %v (%v) not above latency at lower load (%v)",
				rate, st.AvgPacketLatency, prev)
		}
		prev = st.AvgPacketLatency
	}
}

func TestConservationNoLoss(t *testing.T) {
	// Everything injected during measurement must eventually eject
	// (flit conservation / no drops) at a sustainable load.
	cfg := testConfig(t, 0.15)(topo.NewMesh(4, 4))
	cfg.Drain = 50000
	st, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeasuredEjected != st.MeasuredInjected {
		t.Errorf("ejected %d of %d measured packets", st.MeasuredEjected, st.MeasuredInjected)
	}
}

// TestWindowAccountingWhenInjectionRunsDry pins the schedule
// accounting when injection stops mid-window — the gap trace replay
// exposed: a run whose source goes silent must still account the full
// measurement window (rate statistics normalize over MeasuredCycles),
// must not be declared deadlocked, and must exit as soon as the
// network drains instead of burning the whole drain budget. The
// zero-rate Bernoulli run is the degenerate case: nothing is ever
// injected, yet the windows and the early exit behave identically.
func TestWindowAccountingWhenInjectionRunsDry(t *testing.T) {
	cfg := testConfig(t, 0)(topo.NewMesh(4, 4))
	st, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked {
		t.Error("idle network declared deadlocked")
	}
	if st.MeasuredInjected != 0 || st.MeasuredEjected != 0 {
		t.Errorf("zero rate injected %d / ejected %d packets", st.MeasuredInjected, st.MeasuredEjected)
	}
	if st.MeasuredCycles != int64(cfg.Measure) {
		t.Errorf("MeasuredCycles = %d, want the full %d window", st.MeasuredCycles, cfg.Measure)
	}
	// Drained exit: nothing in flight past the measurement window, so
	// the drain budget must not be consumed.
	if full := int64(cfg.Warmup + cfg.Measure + cfg.Drain); st.Cycles >= full {
		t.Errorf("idle run consumed the full %d-cycle budget (Cycles=%d)", full, st.Cycles)
	}
	if st.OfferedRate != 0 || st.AcceptedRate != 0 {
		t.Errorf("rates = %g/%g, want 0/0", st.OfferedRate, st.AcceptedRate)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig(t, 0.2)(topo.NewMesh(4, 4))
	a, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgPacketLatency != b.AvgPacketLatency || a.MeasuredEjected != b.MeasuredEjected ||
		a.Cycles != b.Cycles {
		t.Errorf("same seed, different results: %v vs %v", a, b)
	}
	cfg.Seed = 43
	c, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.MeasuredInjected == a.MeasuredInjected && c.AvgPacketLatency == a.AvgPacketLatency {
		t.Error("different seeds produced identical traffic (suspicious)")
	}
}

func TestAllTopologiesNoDeadlockUnderStress(t *testing.T) {
	topos := map[string]func() (*topo.Topology, error){
		"ring":   func() (*topo.Topology, error) { return topo.NewRing(4, 4) },
		"mesh":   func() (*topo.Topology, error) { return topo.NewMesh(4, 4) },
		"torus":  func() (*topo.Topology, error) { return topo.NewTorus(4, 4) },
		"ftorus": func() (*topo.Topology, error) { return topo.NewFoldedTorus(4, 4) },
		"hcube":  func() (*topo.Topology, error) { return topo.NewHypercube(4, 4) },
		"slim":   func() (*topo.Topology, error) { return topo.NewSlimNoC(3, 6) },
		"fb":     func() (*topo.Topology, error) { return topo.NewFlattenedButterfly(4, 4) },
		"shg": func() (*topo.Topology, error) {
			return topo.NewSparseHamming(4, 4, topo.HammingParams{SR: []int{2}, SC: []int{3}})
		},
	}
	for name, mk := range topos {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(t, 0.9)(mk()) // deliberately past saturation
			cfg.Drain = 2000
			st, err := RunConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Deadlocked {
				t.Errorf("%s deadlocked under stress", name)
			}
			if st.AcceptedRate <= 0 {
				t.Errorf("%s made no progress", name)
			}
		})
	}
}

func TestMultiCycleLinksSlowPackets(t *testing.T) {
	m, _ := topo.NewMesh(4, 4)
	r, _ := route.For(m, route.Auto)
	base := Config{
		Topo: m, Routing: r, NumVCs: 4, BufDepth: 8,
		RouterDelay: 2, PacketLen: 4, InjectionRate: 0.02,
		Seed: 7, Warmup: 500, Measure: 5000, Drain: 20000,
	}
	fast, err := RunConfig(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.LinkLatency = make([]int, m.NumLinks())
	for i := range slow.LinkLatency {
		slow.LinkLatency[i] = 4
	}
	st, err := RunConfig(slow)
	if err != nil {
		t.Fatal(err)
	}
	if st.AvgPacketLatency <= fast.AvgPacketLatency+2 {
		t.Errorf("4-cycle links latency %v not above 1-cycle links %v",
			st.AvgPacketLatency, fast.AvgPacketLatency)
	}
}

func TestFBOutperformsMeshThroughput(t *testing.T) {
	// The central performance shape of Figure 6: flattened butterfly
	// saturates later than the mesh under uniform traffic.
	mesh, _ := topo.NewMesh(4, 4)
	fb, _ := topo.NewFlattenedButterfly(4, 4)
	sat := func(tp *topo.Topology) float64 {
		r, err := route.For(tp, route.Auto)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Topo: tp, Routing: r, NumVCs: 4, BufDepth: 8,
			RouterDelay: 2, PacketLen: 4, Seed: 3,
			Warmup: 500, Measure: 2500, Drain: 10000,
		}
		res, err := SaturationThroughput(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.SaturationRate
	}
	sm, sf := sat(mesh), sat(fb)
	if sf <= sm {
		t.Errorf("FB saturation %.3f not above mesh %.3f", sf, sm)
	}
}

func TestPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := UniformRandom{N: 16}
	for i := 0; i < 200; i++ {
		d := u.Dest(5, rng)
		if d == 5 || d < 0 || d >= 16 {
			t.Fatalf("uniform dest %d invalid", d)
		}
	}
	tr := Transpose{Rows: 4, Cols: 4}
	if d := tr.Dest(1, rng); d != 4 {
		t.Errorf("transpose(0,1) = %d, want 4", d)
	}
	if d := tr.Dest(5, rng); d != -1 {
		t.Errorf("transpose diagonal = %d, want -1", d)
	}
	bc := BitComplement{N: 16}
	if d := bc.Dest(3, rng); d != 12 {
		t.Errorf("bitcomp(3) = %d, want 12", d)
	}
	nb := Neighbor{Rows: 4, Cols: 4}
	if d := nb.Dest(3, rng); d != 0 {
		t.Errorf("neighbor(0,3) = %d, want 0 (wrap)", d)
	}
	if _, err := PatternByName("transpose", 4, 8); err != nil {
		t.Errorf("transpose generalizes to rectangular grids: %v", err)
	}
	if _, err := PatternByName("nope", 4, 4); err == nil {
		t.Error("unknown pattern should fail")
	}
	for _, n := range PatternNames() {
		if _, err := PatternByName(n, 4, 4); err != nil {
			t.Errorf("PatternByName(%s): %v", n, err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	m, _ := topo.NewMesh(4, 4)
	r, _ := route.For(m, route.Auto)
	cfg := Config{Topo: m, Routing: r, NumVCs: 1, BufDepth: 4}
	// Ring routing needs 2 classes; mesh needs 1, so NumVCs=1 is OK here.
	cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := Config{Topo: m, Routing: r, InjectionRate: 2}
	bad.Defaults()
	if err := bad.Validate(); err == nil {
		t.Error("rate > 1 accepted")
	}
	rg, _ := topo.NewRing(4, 4)
	rr, _ := route.For(rg, route.Auto)
	mismatch := Config{Topo: m, Routing: rr}
	mismatch.Defaults()
	if err := mismatch.Validate(); err == nil {
		t.Error("topology/routing mismatch accepted")
	}

	// The engine packs one bit per VC of a port and one bit per port
	// of a router into a 64-bit word: 64 of each is the limit.
	for _, vcs := range []int{64, 65} {
		c := Config{Topo: m, Routing: r, NumVCs: vcs}
		c.Defaults()
		err := c.Validate()
		if vcs <= 64 && err != nil {
			t.Errorf("%d VCs rejected: %v", vcs, err)
		}
		if vcs > 64 && (err == nil || !strings.Contains(err.Error(), "65 VCs per port exceed")) {
			t.Errorf("%d VCs: err = %v, want the VC limit error", vcs, err)
		}
	}
	// Ring positions, credit counts, and flit sequence numbers are 16
	// bits: buffer depths and packet lengths run from 1 to 32767 flits,
	// and a port needs at least one VC. Defaults fills only zeros, so
	// negative values reach Validate as set.
	limits := []struct {
		name               string
		vcs, depth, length int
		want               string // error substring; "" = valid
	}{
		{name: "largest depth and length", vcs: 2, depth: 32767, length: 32767},
		{name: "depth past int16", vcs: 2, depth: 32768, length: 4, want: "buffer depth of 32768 flits outside the engine's range of 1 to 32767"},
		{name: "depth of a rejected job", vcs: 2, depth: 40000, length: 4, want: "range of 1 to 32767"},
		{name: "negative depth", vcs: 2, depth: -3, length: 4, want: "buffer depth of -3 flits"},
		{name: "length past int16", vcs: 2, depth: 8, length: 32768, want: "packet length of 32768 flits outside the engine's range of 1 to 32767"},
		{name: "negative length", vcs: 2, depth: 8, length: -1, want: "packet length of -1 flits"},
		{name: "negative VCs", vcs: -2, depth: 8, length: 4, want: "-2 VCs per port, need at least 1"},
	}
	for _, tc := range limits {
		c := Config{Topo: m, Routing: r, NumVCs: tc.vcs, BufDepth: tc.depth, PacketLen: tc.length}
		c.Defaults()
		err := c.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(Config{Topo: m, Routing: r, BufDepth: -3}); err == nil {
		t.Error("New accepted a negative buffer depth")
	}

	// A flit spends its link latency plus RouterDelay on the timing
	// wheel, which has a slot per cycle of that: the largest latency
	// plus RouterDelay may not exceed 512 cycles, and RouterDelay may
	// not be negative (0 is the default, 3).
	lats := func(l int) []int {
		xs := make([]int, m.NumLinks())
		for i := range xs {
			xs[i] = l
		}
		xs[len(xs)-1] = 1 // the largest latency counts, not the last
		return xs
	}
	pipelines := []struct {
		name  string
		delay int
		lat   []int
		want  string // error substring; "" = valid
	}{
		{name: "default delay", delay: 0},
		{name: "largest pipeline", delay: 3, lat: lats(509)},
		{name: "largest delay", delay: 511},
		{name: "pipeline past the limit", delay: 3, lat: lats(510), want: "a 510-cycle link plus the 3-cycle router pipeline exceeds the engine's limit of 512 cycles"},
		{name: "delay past the limit", delay: 512, want: "limit of 512 cycles"},
		{name: "link of a huge clock", delay: 3, lat: lats(1031773), want: "limit of 512 cycles"},
		{name: "delay that would overflow", delay: math.MaxInt, want: "limit of 512 cycles"},
		{name: "negative delay", delay: -1, want: "router delay of -1 cycles is negative"},
	}
	for _, tc := range pipelines {
		c := Config{Topo: m, Routing: r, RouterDelay: tc.delay, LinkLatency: tc.lat}
		c.Defaults()
		err := c.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(Config{Topo: m, Routing: r, RouterDelay: -2}); err == nil {
		t.Error("New accepted a negative router delay")
	}

	for _, tiles := range []int{64, 65} {
		fb, err := topo.NewFlattenedButterfly(1, tiles) // tiles ports per router
		if err != nil {
			t.Fatal(err)
		}
		fr, err := route.For(fb, route.Auto)
		if err != nil {
			t.Fatal(err)
		}
		c := Config{Topo: fb, Routing: fr}
		c.Defaults()
		err = c.Validate()
		if tiles <= 64 && err != nil {
			t.Errorf("%d-port routers rejected: %v", tiles, err)
		}
		if tiles > 64 && (err == nil || !strings.Contains(err.Error(), "router with 65 ports")) {
			t.Errorf("%d-port routers: err = %v, want the port limit error", tiles, err)
		}
	}
}

// TestEngineAtPackingLimits runs the SoA engine at both packing
// limits at once — 64-port routers with 64 VCs per port, where every
// lane, port, and free-VC mask is a full word — and checks it against
// the reference engine.
func TestEngineAtPackingLimits(t *testing.T) {
	fb, err := topo.NewFlattenedButterfly(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.For(fb, route.Auto)
	if err != nil {
		t.Fatal(err)
	}
	soa, ref := runBothEngines(t, Config{
		Topo: fb, Routing: r, NumVCs: 64, BufDepth: 2,
		RouterDelay: 2, PacketLen: 4, InjectionRate: 0.5,
		Seed: 9, Warmup: 50, Measure: 200, Drain: 1000,
	})
	if soa != ref {
		t.Fatalf("SoA and reference engines diverge at the packing limits:\nSoA       %+v\nreference %+v", soa, ref)
	}
	if soa.MeasuredEjected == 0 || soa.Deadlocked {
		t.Fatalf("degenerate run at the packing limits: %+v", soa)
	}
}

func TestTransposeOnMesh(t *testing.T) {
	m, _ := topo.NewMesh(4, 4)
	r, _ := route.For(m, route.Auto)
	cfg := Config{
		Topo: m, Routing: r, NumVCs: 4, BufDepth: 8,
		RouterDelay: 2, PacketLen: 4, InjectionRate: 0.1,
		Pattern: Transpose{Rows: 4, Cols: 4}, Seed: 9,
		Warmup: 500, Measure: 2000, Drain: 20000,
	}
	st, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deadlocked || st.DeliveredFraction() < 0.99 {
		t.Errorf("transpose on mesh: %v", st)
	}
}
