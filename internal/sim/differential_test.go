package sim

// Differential equivalence harness for shape sharing: a seeded
// generator draws random (topology family, routing, pattern, load,
// seed, control on/off) tuples, runs each tuple once through a fresh
// RunConfig build and once as a replica of a batch — replicas of one
// shared Shape, run one after another — and asserts the two Stats are
// bit-identical field by field. This is the proof obligation behind
// every layer above the engine — the toolchain's shape memo, the
// cache, the CSV guarantees, and the parity tests all assume shared ==
// fresh at the bit level.

import (
	"math/rand"
	"testing"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
	"sparsehamming/internal/trace"
)

// diffFamily is one topology family instance the generator draws
// from: a small grid satisfying the family's constraint.
type diffFamily struct {
	kind       string
	rows, cols int
	sr, sc     []int
}

// diffFamilies covers every registered topology family.
var diffFamilies = []diffFamily{
	{kind: "ring", rows: 2, cols: 4},
	{kind: "mesh", rows: 4, cols: 4},
	{kind: "torus", rows: 4, cols: 4},
	{kind: "folded-torus", rows: 4, cols: 4},
	{kind: "hypercube", rows: 4, cols: 4},
	{kind: "slimnoc", rows: 2, cols: 4},
	{kind: "flattened-butterfly", rows: 4, cols: 4},
	{kind: "sparse-hamming", rows: 4, cols: 4, sr: []int{2}, sc: []int{2}},
	{kind: "ruche", rows: 4, cols: 4, sr: []int{2}},
}

// diffRoutings are the routing names the generator draws: the
// family's co-designed default and the generic hop-minimal tables
// (buildable for any connected topology).
var diffRoutings = []string{"", "hop-minimal"}

// diffLoads spans from near-zero through deep saturation so the
// harness exercises drained, early-verdict, and drain-capped exits.
var diffLoads = []float64{0.02, 0.08, 0.15, 0.3, 0.5, 0.9}

// diffCase is one generated configuration tuple.
type diffCase struct {
	family  diffFamily
	routing string
	pattern string
	load    float64
	seed    int64
	control bool
}

// diffConfig materializes the tuple against a topology and routing
// into the sequential-path Config. Short windows keep the full corpus
// fast; small VC counts and buffers reach interesting contention at
// these network sizes.
func (dc diffCase) diffConfig(t *testing.T, tp *topo.Topology, rt *route.Routing) Config {
	t.Helper()
	pat, err := PatternByName(dc.pattern, dc.family.rows, dc.family.cols)
	if err != nil {
		t.Fatalf("pattern %q: %v", dc.pattern, err)
	}
	vcs := 4
	if rt.NumClasses > vcs {
		vcs = rt.NumClasses
	}
	cfg := Config{
		Topo: tp, Routing: rt,
		NumVCs: vcs, BufDepth: 8,
		RouterDelay: 2, PacketLen: 4,
		InjectionRate: dc.load,
		Pattern:       pat,
		Seed:          dc.seed,
		Warmup:        200, Measure: 500, Drain: 1500,
	}
	if dc.control {
		cfg.Control = &Control{Window: 50, RelHalfWidth: 0.05}
	}
	return cfg
}

// TestBatchedMatchesSequentialDifferential is the harness entry
// point: 36 batches of 3 replicas each (108 generated configurations,
// every family represented) in full mode, a quarter of that under
// -short. Each batch mixes loads, seeds, patterns, and control modes
// over one shared Shape, so replicas of one build end at different
// cycles and by different exits.
func TestBatchedMatchesSequentialDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1FFE12E))
	batches := 36
	if testing.Short() {
		batches = 9
	}
	const replicasPerBatch = 3
	patterns := PatternNames()

	covered := map[string]bool{}
	total := 0
	for b := 0; b < batches; b++ {
		fam := diffFamilies[b%len(diffFamilies)]
		covered[fam.kind] = true
		tp, err := topo.ByName(fam.kind, fam.rows, fam.cols, fam.sr, fam.sc)
		if err != nil {
			t.Fatalf("topology %s: %v", fam.kind, err)
		}
		routing := diffRoutings[rng.Intn(len(diffRoutings))]
		rt, err := route.ForName(tp, routing)
		if err != nil {
			t.Fatalf("routing %q on %s: %v", routing, fam.kind, err)
		}

		// Draw the batch's replica tuples.
		cases := make([]diffCase, replicasPerBatch)
		for i := range cases {
			pattern := patterns[rng.Intn(len(patterns))]
			if _, err := PatternByName(pattern, fam.rows, fam.cols); err != nil {
				pattern = "uniform" // pattern unsupported on this grid
			}
			cases[i] = diffCase{
				family:  fam,
				routing: routing,
				pattern: pattern,
				load:    diffLoads[rng.Intn(len(diffLoads))],
				seed:    rng.Int63n(1 << 32),
				control: rng.Intn(2) == 1,
			}
		}

		// Sequential reference: each tuple through the classic
		// build-and-run path.
		want := make([]Stats, len(cases))
		for i, dc := range cases {
			st, err := RunConfig(dc.diffConfig(t, tp, rt))
			if err != nil {
				t.Fatalf("sequential %+v: %v", dc, err)
			}
			want[i] = st
		}

		// Batched: the same tuples as replicas of one shared shape.
		cfgs := make([]Config, len(cases))
		for i, dc := range cases {
			cfgs[i] = dc.diffConfig(t, tp, rt)
		}
		got := runBatch(t, cfgs)

		for i := range cases {
			total++
			// Stats has only scalar fields, so == is a field-by-field
			// bit-identity check.
			if got[i] != want[i] {
				t.Errorf("%s routing=%q %+v:\nbatched    %+v\nsequential %+v",
					fam.kind, routing, cases[i], got[i], want[i])
			}
		}
	}

	if !testing.Short() {
		if total < 100 {
			t.Fatalf("harness covered %d configurations, want >= 100", total)
		}
		for _, fam := range diffFamilies {
			if !covered[fam.kind] {
				t.Errorf("family %s never drawn", fam.kind)
			}
		}
	}
	t.Logf("verified %d configurations across %d families", total, len(covered))
}

// TestBatchedMatchesSequentialReplayDifferential extends the harness
// to trace-driven injection: for every 4x4 family, replicas replaying
// generated application traces — mixed generators, load scales, and
// control modes over one shared Shape — must match their fresh runs
// bit for bit. This is the guarantee that lets the load-sweep ladder
// (LoadLatencyCurve and the spec "load" mode) share a build across
// trace jobs.
func TestBatchedMatchesSequentialReplayDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7EACE))
	generators := trace.GeneratorNames()
	scales := []float64{0.25, 0.5, 1.0}

	// Pre-generate one trace per generator; replicas draw from these.
	traces := make([]*Replay, len(generators))
	for i, g := range generators {
		tr, err := trace.Generate(g, trace.GenConfig{
			Rows: 4, Cols: 4, Cycles: 1200, Seed: int64(100 + i), Rate: 0.3,
		})
		if err != nil {
			t.Fatalf("generate %s: %v", g, err)
		}
		if traces[i], err = NewReplay(g, tr); err != nil {
			t.Fatalf("replay %s: %v", g, err)
		}
	}

	total := 0
	for _, fam := range diffFamilies {
		if fam.rows != 4 || fam.cols != 4 {
			continue // the generated traces are 4x4
		}
		tp, err := topo.ByName(fam.kind, fam.rows, fam.cols, fam.sr, fam.sc)
		if err != nil {
			t.Fatalf("topology %s: %v", fam.kind, err)
		}
		rt, err := route.ForName(tp, "")
		if err != nil {
			t.Fatalf("routing on %s: %v", fam.kind, err)
		}

		const replicasPerBatch = 3
		configs := make([]Config, replicasPerBatch)
		for i := range configs {
			cfg := Config{
				Topo: tp, Routing: rt,
				NumVCs: 4, BufDepth: 8,
				RouterDelay: 2, PacketLen: 4,
				InjectionRate: scales[rng.Intn(len(scales))],
				Pattern:       traces[rng.Intn(len(traces))],
				Seed:          rng.Int63n(1 << 32),
				Warmup:        200, Measure: 500, Drain: 1500,
			}
			if rt.NumClasses > cfg.NumVCs {
				cfg.NumVCs = rt.NumClasses
			}
			if rng.Intn(2) == 1 {
				cfg.Control = &Control{Window: 50, RelHalfWidth: 0.05}
			}
			configs[i] = cfg
		}

		want := make([]Stats, len(configs))
		for i, cfg := range configs {
			st, err := RunConfig(cfg)
			if err != nil {
				t.Fatalf("sequential %s replica %d: %v", fam.kind, i, err)
			}
			want[i] = st
		}

		got := runBatch(t, configs)
		for i := range configs {
			total++
			if got[i] != want[i] {
				t.Errorf("%s replay %s scale=%g:\nbatched    %+v\nsequential %+v",
					fam.kind, configs[i].Pattern.Name(), configs[i].InjectionRate, got[i], want[i])
			}
		}
	}
	if total < 15 {
		t.Fatalf("replay harness covered %d configurations, want >= 15", total)
	}
	t.Logf("verified %d trace-driven configurations", total)
}

// TestShapeRejectsForeignConfig pins the Shape compatibility checks:
// replicas may vary load, seed, pattern, and schedule, but never the
// topology, routing, or link latencies the shape was built from.
func TestShapeRejectsForeignConfig(t *testing.T) {
	mesh, err := topo.NewMesh(4, 4)
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	rt, err := route.For(mesh, route.Auto)
	if err != nil {
		t.Fatalf("routing: %v", err)
	}
	cfg := Config{Topo: mesh, Routing: rt, InjectionRate: 0.1}
	sh, err := NewShape(cfg)
	if err != nil {
		t.Fatalf("NewShape: %v", err)
	}
	if _, err := sh.Instantiate(cfg); err != nil {
		t.Fatalf("Instantiate same config: %v", err)
	}

	other, err := topo.NewMesh(4, 4)
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	ort, err := route.For(other, route.Auto)
	if err != nil {
		t.Fatalf("routing: %v", err)
	}
	if _, err := sh.Instantiate(Config{Topo: other, Routing: ort, InjectionRate: 0.1}); err == nil {
		t.Fatal("Instantiate accepted a different topology instance")
	}

	lats := make([]int, mesh.NumLinks())
	for i := range lats {
		lats[i] = 2
	}
	if _, err := sh.Instantiate(Config{Topo: mesh, Routing: rt, InjectionRate: 0.1, LinkLatency: lats}); err == nil {
		t.Fatal("Instantiate accepted different link latencies")
	}
}

// TestBatchCountsBuildWork pins the amortization accounting: a load
// ladder of N points performs one shape build, N replica builds, and
// N runs.
func TestBatchCountsBuildWork(t *testing.T) {
	mesh, err := topo.NewMesh(4, 4)
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	rt, err := route.For(mesh, route.Auto)
	if err != nil {
		t.Fatalf("routing: %v", err)
	}
	base := Config{Topo: mesh, Routing: rt, Seed: 1, Warmup: 100, Measure: 200, Drain: 600}
	rates := []float64{0.05, 0.1, 0.2, 0.4}
	before := Counters()
	out, err := LoadLatencyCurve(nil, base, rates)
	if err != nil {
		t.Fatalf("LoadLatencyCurve: %v", err)
	}
	after := Counters()

	if n := len(out); n != len(rates) {
		t.Fatalf("ladder returned %d stats for %d points", n, len(rates))
	}
	if d := after.ShapeBuilds - before.ShapeBuilds; d != 1 {
		t.Errorf("shape builds: got %d, want 1", d)
	}
	if d := after.SimBuilds - before.SimBuilds; d != int64(len(rates)) {
		t.Errorf("replica builds: got %d, want %d", d, len(rates))
	}
	if d := after.Runs - before.Runs; d != int64(len(rates)) {
		t.Errorf("runs: got %d, want %d", d, len(rates))
	}
}

// runBatch runs every config as a replica of one Shape built from the
// first, one after another.
func runBatch(t *testing.T, cfgs []Config) []Stats {
	t.Helper()
	b, err := newBatch(cfgs)
	if err != nil {
		t.Fatalf("batch over %s: %v", cfgs[0].Topo.Kind, err)
	}
	return b.Run()
}

// Batch is the harnesses' unit of shape sharing: replicas of one
// Shape, run one after another by Run.
type Batch struct{ sims []*Simulator }

// Replica is a batch member's delta against the base config of
// NewBatch.
type Replica struct {
	InjectionRate float64
	Seed          int64
}

// NewBatch instantiates one replica per delta over a Shape built from
// base.
func NewBatch(base Config, reps []Replica) (*Batch, error) {
	cfgs := make([]Config, len(reps))
	for i, rep := range reps {
		cfgs[i] = base
		cfgs[i].InjectionRate, cfgs[i].Seed = rep.InjectionRate, rep.Seed
	}
	return newBatch(cfgs)
}

// newBatch builds the Shape from cfgs[0] and instantiates every
// config over it.
func newBatch(cfgs []Config) (*Batch, error) {
	sh, err := NewShape(cfgs[0])
	if err != nil {
		return nil, err
	}
	b := &Batch{sims: make([]*Simulator, len(cfgs))}
	for i, c := range cfgs {
		if b.sims[i], err = sh.Instantiate(c); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Run runs the replicas in order and returns their Stats.
func (b *Batch) Run() []Stats {
	out := make([]Stats, len(b.sims))
	for i, s := range b.sims {
		out[i] = s.Run()
	}
	return out
}
