package sim

// Per-stage micro-benchmarks of the simulator pipeline. The stage
// benchmarks drive a live simulation (every phase runs each cycle so
// the network state stays realistic) but keep the timer running only
// around the stage under measurement; the step benchmarks time whole
// cycles in the regimes the toolchain spends its time in.
//
// Run with:
//
//	go test ./internal/sim -bench=. -benchmem

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sparsehamming/internal/perf"
	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

// benchRec collects the shape-sharing benchmark entries; TestMain
// flushes them to the repository's perf trajectory after a -bench run
// so `cmd/shperf -check` guards the shared-build path.
var benchRec = perf.NewRecorder()

// TestMain appends recorded measurements to the perf trajectory. The
// default trajectory path is relative to the repository root; package
// tests run in the package directory, so rebase it (an explicit
// $BENCH_SIM_JSON is used as-is).
func TestMain(m *testing.M) {
	code := m.Run()
	if f := flag.Lookup("test.bench"); f != nil && f.Value.String() != "" {
		path := perf.DefaultPath()
		if os.Getenv(perf.DefaultPathEnv) == "" {
			path = filepath.Join("..", "..", path)
		}
		if err := benchRec.Flush(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	os.Exit(code)
}

// benchMesh returns a rows x cols mesh configuration with the
// paper's router parameters (8 VCs x 32 flits, 4-flit packets) at the
// given injection rate. Its far-off measurement window keeps the
// benchmarks in the warmup regime, so no measurement bookkeeping
// triggers.
func benchMesh(b *testing.B, rows, cols int, rate float64) Config {
	b.Helper()
	m, err := topo.NewMesh(rows, cols)
	if err != nil {
		b.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Topo: m, Routing: r, NumVCs: 8, BufDepth: 32,
		RouterDelay: 3, PacketLen: 4, InjectionRate: rate,
		Seed: 1, Warmup: 1 << 30, Measure: 1, Drain: 1,
	}
}

// benchMemPool returns MemPool's network configuration (tech.MemPool):
// an 8x8 flattened butterfly carrying 1-flit packets over 2 VCs x
// 2-flit buffers, at 0.2 flits/node/cycle. Every flit is a head that
// needs a route and a VC, so it stresses VC allocation far more than
// the mesh rungs do.
func benchMemPool(b *testing.B) Config {
	b.Helper()
	fb, err := topo.NewFlattenedButterfly(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	r, err := route.For(fb, route.Auto)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Topo: fb, Routing: r, NumVCs: 2, BufDepth: 2,
		RouterDelay: 3, PacketLen: 1, InjectionRate: 0.2,
		Seed: 1, Warmup: 1 << 30, Measure: 1, Drain: 1,
	}
}

// benchSim builds a simulator for cfg warmed up to steady state. ref
// selects the retained array-of-structs reference engine instead of
// the SoA engine.
func benchSim(b *testing.B, cfg Config, ref bool) *Simulator {
	b.Helper()
	build := New
	if ref {
		build = newRef
	}
	s, err := build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		s.step(true)
	}
	return s
}

// stepBench times full cycles of cfg's network.
func stepBench(b *testing.B, cfg Config, ref bool) {
	b.Helper()
	s := benchSim(b, cfg, ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step(true)
	}
}

// BenchmarkStepIdle: cycle cost of an empty 8x8 mesh (no injection) —
// the floor every simulated cycle pays.
func BenchmarkStepIdle(b *testing.B) { stepBench(b, benchMesh(b, 8, 8, 0), false) }

// BenchmarkStepZeroLoad: the near-zero-load regime of the zero-load
// latency reference runs (0.5% injection).
func BenchmarkStepZeroLoad(b *testing.B) { stepBench(b, benchMesh(b, 8, 8, 0.005), false) }

// BenchmarkStepLoaded: a 30%-loaded 8x8 mesh, representative of
// mid-curve saturation probes.
func BenchmarkStepLoaded(b *testing.B) { stepBench(b, benchMesh(b, 8, 8, 0.3), false) }

// BenchmarkStepSaturated: past saturation, every router busy — the
// most expensive cycles of a saturation search.
func BenchmarkStepSaturated(b *testing.B) { stepBench(b, benchMesh(b, 8, 8, 0.9), false) }

// BenchmarkStepMemPool: MemPool's router and packet configuration
// (see benchMemPool), the costliest per flit-hop of the toolchain's
// networks.
func BenchmarkStepMemPool(b *testing.B) { stepBench(b, benchMemPool(b), false) }

// BenchmarkStepMesh32: a 32x32 mesh at 10% injection, below its
// uniform-traffic channel-load bound of 4/32 = 12.5%. It measures how
// the occupancy scans and per-router masks behave on a grid sixteen
// times the 8x8 rungs'.
func BenchmarkStepMesh32(b *testing.B) { stepBench(b, benchMesh(b, 32, 32, 0.1), false) }

// Reference-engine counterparts of the step benchmarks: the same
// regimes on the retained array-of-structs layout, so the SoA win is
// visible per regime in one -bench=BenchmarkStep run.
func BenchmarkStepIdleRef(b *testing.B)      { stepBench(b, benchMesh(b, 8, 8, 0), true) }
func BenchmarkStepZeroLoadRef(b *testing.B)  { stepBench(b, benchMesh(b, 8, 8, 0.005), true) }
func BenchmarkStepLoadedRef(b *testing.B)    { stepBench(b, benchMesh(b, 8, 8, 0.3), true) }
func BenchmarkStepSaturatedRef(b *testing.B) { stepBench(b, benchMesh(b, 8, 8, 0.9), true) }
func BenchmarkStepMemPoolRef(b *testing.B)   { stepBench(b, benchMemPool(b), true) }
func BenchmarkStepMesh32Ref(b *testing.B)    { stepBench(b, benchMesh(b, 32, 32, 0.1), true) }

// stageBench runs full cycles but times only the selected stage.
func stageBench(b *testing.B, rate float64, stage func(st *simState, t int64)) {
	b.Helper()
	s := benchSim(b, benchMesh(b, 8, 8, rate), false)
	st := soaOf(s)
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		t := s.now
		st.deliver(t)
		s.generate(t)
		st.injectPhase(t)
		b.StartTimer()
		stage(st, t)
		b.StopTimer()
		s.now++
	}
}

// BenchmarkStageVCAlloc times the VC-allocation kernel over the
// occupied routers of a loaded network; switch allocation still runs
// (off the clock) so the network keeps moving.
func BenchmarkStageVCAlloc(b *testing.B) {
	stageBench(b, 0.3, func(st *simState, t int64) {
		st.vcAllocPhase(t)
		b.StopTimer()
		st.switchPhase(t)
	})
}

// BenchmarkStageSwitchAlloc times the switch-allocation/traversal
// kernel over the occupied routers of a loaded network; VC allocation
// runs off the clock first.
func BenchmarkStageSwitchAlloc(b *testing.B) {
	stageBench(b, 0.3, func(st *simState, t int64) {
		b.StopTimer()
		st.vcAllocPhase(t)
		b.StartTimer()
		st.switchPhase(t)
	})
}

// BenchmarkStageDeliver times deliver directly: emptying one
// timing-wheel slot of arriving flits and credits into the flat VC
// lanes. It inverts stageBench's pattern: deliver is timed, the rest
// runs off-timer.
func BenchmarkStageDeliver(b *testing.B) {
	s := benchSim(b, benchMesh(b, 8, 8, 0.3), false)
	st := soaOf(s)
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		t := s.now
		b.StartTimer()
		st.deliver(t)
		b.StopTimer()
		s.generate(t)
		st.injectPhase(t)
		st.vcAllocPhase(t)
		st.switchPhase(t)
		s.now++
	}
}

// BenchmarkStageGenerate times traffic generation plus source-queue
// injection (phase 2, including the occupancy-bitmap inject scan).
func BenchmarkStageGenerate(b *testing.B) {
	s := benchSim(b, benchMesh(b, 8, 8, 0.3), false)
	st := soaOf(s)
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		t := s.now
		st.deliver(t)
		b.StartTimer()
		s.generate(t)
		st.injectPhase(t)
		b.StopTimer()
		st.vcAllocPhase(t)
		st.switchPhase(t)
		s.now++
	}
}

// BenchmarkEngineSoASpeedup runs the workload shape of one saturation
// search iteration — the near-idle zero-load reference run plus a
// mid-curve 30%-load probe on the 8x8 mesh — on the SoA engine and on
// the retained reference engine, verifies each leg's results are
// bit-identical, and records the engines' time ratio as the
// soa_speedup_x metric that `shperf -check` floors at 1.5. Both
// regimes are weighted the way real campaigns pay for them: the
// zero-load leg is long and mostly idle (where the occupancy bitmap
// wins), the probe leg is short and busy (where the dense lanes and
// bit-scan allocators win).
func BenchmarkEngineSoASpeedup(b *testing.B) {
	probe := benchLadderConfig(b)
	probe.InjectionRate = 0.3
	anchor := benchLadderConfig(b)
	anchor.InjectionRate = 0.005
	anchor.Warmup, anchor.Measure, anchor.Drain = 1000, 20000, 30000
	legs := []Config{anchor, probe}

	meter := perf.StartMeter()
	var soaNs, refNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, leg := range legs {
			leg.Seed = int64(i + 1)

			soaStart := time.Now()
			soa, err := New(leg)
			if err != nil {
				b.Fatal(err)
			}
			soaStats := soa.Run()
			soaNs += time.Since(soaStart).Nanoseconds()

			refStart := time.Now()
			ref, err := newRef(leg)
			if err != nil {
				b.Fatal(err)
			}
			refStats := ref.Run()
			refNs += time.Since(refStart).Nanoseconds()

			if soaStats != refStats {
				b.Fatalf("SoA and reference engines diverged at rate %v:\nsoa %+v\nref %+v",
					leg.InjectionRate, soaStats, refStats)
			}
		}
	}
	speedup := float64(refNs) / float64(soaNs)
	b.ReportMetric(speedup, "soa_speedup_x")
	entry := meter.Done("EngineSoASpeedup", b.N)
	entry.Metrics = map[string]float64{"soa_speedup_x": speedup}
	benchRec.Set(entry)
}

// benchLadderConfig returns the 8x8-mesh base configuration the
// ladder benchmarks share.
func benchLadderConfig(b *testing.B) Config {
	b.Helper()
	m, err := topo.NewMesh(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		b.Fatal(err)
	}
	return Config{
		Topo: m, Routing: r, NumVCs: 8, BufDepth: 32,
		RouterDelay: 3, PacketLen: 4,
		Seed: 1, Warmup: 300, Measure: 800, Drain: 2400,
	}
}

// benchLadderRates is the 8-point load ladder the ladder benchmarks
// sweep — the shape of a Figure 6 load sweep.
var benchLadderRates = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9}

// BenchmarkShapeBuild times the shared build product alone: channel
// wiring plus the pathHops LUT — the per-topology cost a shared
// shape pays once.
func BenchmarkShapeBuild(b *testing.B) {
	cfg := benchLadderConfig(b)
	meter := perf.StartMeter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewShape(cfg); err != nil {
			b.Fatal(err)
		}
	}
	benchRec.Set(meter.Done("ShapeBuild", b.N))
}

// BenchmarkInstantiateFromShape times the per-replica remainder: the
// mutable VC lanes, credits, and arbiter state every replica pays. ShapeBuild ns/op over this ns/op is the per-replica build
// saving of sharing a shape.
func BenchmarkInstantiateFromShape(b *testing.B) {
	cfg := benchLadderConfig(b)
	sh, err := NewShape(cfg)
	if err != nil {
		b.Fatal(err)
	}
	meter := perf.StartMeter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sh.Instantiate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	benchRec.Set(meter.Done("InstantiateFromShape", b.N))
}

// BenchmarkSharedShapeLadder runs the 8-point load ladder over one
// shared Shape — one NewShape, then eight Instantiate+Run replicas one
// after another. Against BenchmarkSequentialLadder it isolates what
// sharing the build saves.
func BenchmarkSharedShapeLadder(b *testing.B) {
	cfg := benchLadderConfig(b)
	meter := perf.StartMeter()
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, err := NewShape(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range benchLadderRates {
			c := cfg
			c.InjectionRate = r
			c.Seed = int64(i + 1)
			s, err := sh.Instantiate(c)
			if err != nil {
				b.Fatal(err)
			}
			cycles += s.Run().Cycles
		}
	}
	elapsed := meter.Elapsed()
	cyPerSec := float64(cycles) / elapsed.Seconds()
	b.ReportMetric(cyPerSec/1e6, "Msimcy/s")
	entry := meter.Done("SharedShapeLadder", b.N)
	entry.CyclesPerSec = cyPerSec
	benchRec.Set(entry)
}

// BenchmarkSequentialLadder runs the same 8-point ladder with one
// full build per point, as the baseline for
// BenchmarkSharedShapeLadder.
func BenchmarkSequentialLadder(b *testing.B) {
	cfg := benchLadderConfig(b)
	meter := perf.StartMeter()
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range benchLadderRates {
			c := cfg
			c.InjectionRate = r
			c.Seed = int64(i + 1)
			st, err := RunConfig(c)
			if err != nil {
				b.Fatal(err)
			}
			cycles += st.Cycles
		}
	}
	elapsed := meter.Elapsed()
	cyPerSec := float64(cycles) / elapsed.Seconds()
	b.ReportMetric(cyPerSec/1e6, "Msimcy/s")
	entry := meter.Done("SequentialLadder", b.N)
	entry.CyclesPerSec = cyPerSec
	benchRec.Set(entry)
}

// BenchmarkRun measures a complete short run end to end, the unit of
// work campaigns parallelize over.
func BenchmarkRun(b *testing.B) {
	m, err := topo.NewMesh(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	r, err := route.For(m, route.Auto)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := RunConfig(Config{
			Topo: m, Routing: r, NumVCs: 8, BufDepth: 32,
			RouterDelay: 3, PacketLen: 4, InjectionRate: 0.3,
			Seed: int64(i + 1), Warmup: 500, Measure: 2000, Drain: 4000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if st.Deadlocked {
			b.Fatal("deadlock")
		}
	}
}
