package main

// Workload generation: every spec, trace file, and cache entry a run
// submits or loads is a deterministic function of (workload, seed).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/spec"
	"sparsehamming/internal/trace"
)

// Workload names, fixed: documentation and results refer to them.
const (
	PredictMix = "predict-mix"
	LoadSweep  = "load-sweep"
	CacheRW    = "cache-rw"
)

// workloadNames lists the workloads in documentation order.
var workloadNames = []string{PredictMix, LoadSweep, CacheRW}

// Client assignment of a request: either closed-loop client may take
// it from the shared queue, or it is pinned to the writer or reader.
const (
	anyClient    = -1
	writerClient = 0
	readerClient = 1
)

// Request is one campaign submission.
type Request struct {
	// Class is the request's stratification class: its grid for
	// predict-mix and load-sweep, "write" or "read" for cache-rw.
	Class string
	// Client pins the request to one client (writerClient,
	// readerClient) or leaves it to the shared queue (anyClient).
	Client int
	Spec   *spec.Spec
	Body   []byte
	// Groups is the spec's expansion; Jobs its concatenation, which
	// the service's CSV rows follow one for one.
	Groups [][]exp.Job
	Jobs   []exp.Job
}

// Workload is a generated request list plus the inputs the server
// needs before it starts.
type Workload struct {
	Name string
	Seed int64
	// Requests is the timed request list in submission order.
	Requests []Request
	// Classes lists the primary request classes in expected-latency
	// order with their sizes: req_p50_ms and req_p90_ms must each land
	// inside one of these blocks.
	Classes []string
	Sizes   []int
	// HitClass names the all-cache-hit request class ("" when the
	// workload has none); its requests are excluded from req_*.
	HitClass string
	// TraceDir holds generated trace files (absolute path, "" when
	// none); TraceFiles lists them.
	TraceDir   string
	TraceFiles []string
	// ReaderMin, when positive, makes the reader client resubmit its
	// (last, pinned) requests for as long as the other client runs,
	// and at least ReaderMin times, instead of running its whole list.
	ReaderMin int
	// Cache is set when the server runs with -cache, pre-filled from
	// FillSpec's expansion under fillSeeds distinct seeds plus the
	// reader specs.
	Cache    bool
	FillSpec *spec.Spec
	Readers  []*spec.Spec
}

// primary reports whether a request counts toward req_p50/p90_ms.
func (w *Workload) primary(r *Request) bool { return r.Class != w.HitClass }

// newRequest expands and encodes a spec into a request.
func newRequest(class string, client int, s *spec.Spec) (Request, error) {
	if err := s.Validate(); err != nil {
		return Request{}, fmt.Errorf("generated spec %s: %w", s.Name, err)
	}
	groups, err := s.ExpandSweeps()
	if err != nil {
		return Request{}, fmt.Errorf("generated spec %s: %w", s.Name, err)
	}
	body, err := json.Marshal(s)
	if err != nil {
		return Request{}, err
	}
	var jobs []exp.Job
	for _, g := range groups {
		jobs = append(jobs, g...)
	}
	return Request{Class: class, Client: client, Spec: s, Body: body, Groups: groups, Jobs: jobs}, nil
}

// buildWorkload generates the named workload for a seed. Trace files
// are written under dir (which must be absolute); nothing else
// touches the disk.
func buildWorkload(name string, seed int64, dir string) (*Workload, error) {
	switch name {
	case PredictMix:
		return predictMix(seed)
	case LoadSweep:
		return loadSweep(seed, dir)
	case CacheRW:
		return cacheRW(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// Topology families of Figure 6 that fit the benchmark's grids:
// hypercube needs a power-of-two grid, SlimNoC fits none of them.
var (
	familiesPow2 = []string{"ring", "mesh", "torus", "folded-torus", "hypercube", "flattened-butterfly", "sparse-hamming"}
	familiesAny  = []string{"ring", "mesh", "torus", "folded-torus", "flattened-butterfly", "sparse-hamming"}
)

// topology returns the spec entry for a family on a g x g grid. The
// n-th sparse Hamming entry of a class gets one offset per dimension
// when n is even and two when odd, drawn (seeded) from {2..g-1}: the
// offsets vary with the seed while every class keeps the same mix of
// densities, so the work a request list holds barely moves.
func topology(rng *rand.Rand, kind string, g, n int) spec.TopologySpec {
	ts := spec.TopologySpec{Kind: kind}
	if kind != "sparse-hamming" {
		return ts
	}
	k := min(1+n%2, g-2)
	draw := func() []int {
		xs := rng.Perm(g - 2)[:k]
		for i := range xs {
			xs[i] += 2
		}
		slices.Sort(xs)
		return xs
	}
	ts.SR, ts.SC = draw(), draw()
	return ts
}

// byClass orders slots class by class, in the given class order, and
// shuffles (seeded) within each class. Both clients then draw the same
// class at the same time, and the list ends with its cheapest class,
// which keeps the closing tail (one client idle) short. classOf may
// map several request classes to one ordering class, which shuffles
// them together.
func byClass[T any](rng *rand.Rand, slots []T, classOf func(T) string, order []string) []T {
	var out []T
	for _, c := range order {
		start := len(out)
		for _, s := range slots {
			if classOf(s) == c {
				out = append(out, s)
			}
		}
		block := out[start:]
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	return out
}

// simSeed draws a nonzero simulation seed.
func simSeed(rng *rand.Rand) []int64 { return []int64{1 + rng.Int63n(1<<20)} }

// predictMix: 140 predict campaigns, one topology each, stratified by
// grid. On 4x4 every family runs six quick, six adaptive and four
// both-tier campaigns; on 6x6 four quick; on 8x8 the mesh, flattened
// butterfly and sparse Hamming graph run one both-tier campaign each;
// plus the MemPool Table III campaign. Measured on a 2-core host, the
// classes' latencies meet but do not interleave (4x4 up to about
// 0.55 s, 6x6 0.55-0.8 s, MemPool about 1.8 s, 8x8 above 2 s), so p50
// lands in the 4x4 block, 42 ranks from its edge, and p90 in the 6x6
// block, 10 ranks below its top. The list runs the 8x8 and MemPool
// campaigns first, then the 4x4 and 6x6 ones shuffled together.
func predictMix(seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	type slot struct {
		class string
		sweep spec.Sweep
	}
	quick, adaptive, both := []string{"quick"}, []string{"adaptive"}, []string{"quick", "adaptive"}
	var slots []slot
	shg := map[string]int{} // sparse Hamming entries drawn per class
	add := func(g int, families []string, tiers []string, n int) {
		class := fmt.Sprintf("%dx%d", g, g)
		for _, f := range families {
			for i := 0; i < n; i++ {
				slots = append(slots, slot{class, spec.Sweep{
					Label:      class,
					Arch:       spec.ArchSpec{Scenario: "a", Rows: g, Cols: g},
					Topologies: []spec.TopologySpec{topology(rng, f, g, shg[class])},
					Qualities:  tiers,
					Seeds:      simSeed(rng),
				}})
				if f == "sparse-hamming" {
					shg[class]++
				}
			}
		}
	}
	add(4, familiesPow2, quick, 6)
	add(4, familiesPow2, adaptive, 6)
	add(4, familiesPow2, both, 4)
	add(6, familiesAny, quick, 4)
	add(8, []string{"mesh", "flattened-butterfly", "sparse-hamming"}, both, 1)
	slots = append(slots, slot{"mempool", spec.Sweep{
		Label:      "mempool",
		Arch:       spec.ArchSpec{Scenario: "mempool"},
		Topologies: []spec.TopologySpec{{Kind: "flattened-butterfly"}},
		Qualities:  []string{"quick"},
		Seeds:      []int64{1},
	}})

	w := &Workload{Name: PredictMix, Seed: seed,
		Classes: []string{"4x4", "6x6", "mempool", "8x8"}}
	// The host's speed drifts over a run, and the 4x4 and 6x6 latency
	// ranges meet: run class by class, a slow phase during the 4x4 block
	// lifts its dearest requests past the cheapest 6x6 ones and onto the
	// p90 rank. Shuffled together, both classes see the same drift.
	small := func(s slot) string {
		if s.class == "4x4" || s.class == "6x6" {
			return "small"
		}
		return s.class
	}
	for i, s := range byClass(rng, slots, small, []string{"8x8", "mempool", "small"}) {
		sp := &spec.Spec{Name: fmt.Sprintf("predict-mix-%03d", i), Sweeps: []spec.Sweep{s.sweep}}
		r, err := newRequest(s.class, anyClient, sp)
		if err != nil {
			return nil, err
		}
		w.Requests = append(w.Requests, r)
	}
	w.Sizes = classSizes(w)
	return w, nil
}

// Offered-load ladders of load-sweep: flits/node/cycle for synthetic
// patterns, replay time-dilation scales for traces (generated at
// traceRate, or allreduceRate, so scale 1 offers that rate). Both run from light load
// to past saturation on every family.
var (
	syntheticLoads = []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.65, 0.9}
	traceLoads     = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}
)

const traceRate = 0.5

// allreduceRate replaces traceRate for the allreduce trace. Its
// balanced exchange phases, silent half the time, never congest at
// traceRate, and its replays then run as fast as 4x4 campaigns; twice
// the rate puts them in the 6x6 class's latency range with the other
// replays.
const allreduceRate = 2 * traceRate

// loadSweep: 144 load-mode campaigns of one topology x one pattern x
// eight loads. 4x4: every family twice under uniform, transpose and
// hotspot; 6x6: every family three times per synthetic pattern and
// twice per generated trace. Measured on a 2-core host, 4x4 campaigns
// take 0.07-0.28 s (median 0.14 s) and 6x6 ones, replays included,
// 0.17-1 s (median 0.4 s): the dearest 4x4 and the cheapest 6x6
// campaigns interleave, so both percentiles land in the 6x6 block,
// above the 4x4 one: p50 29 ranks above its bottom, p90 14 below its
// top.
func loadSweep(seed int64, dir string) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{Name: LoadSweep, Seed: seed, Classes: []string{"4x4", "6x6"},
		TraceDir: filepath.Join(dir, "traces")}
	if err := os.MkdirAll(w.TraceDir, 0o755); err != nil {
		return nil, err
	}
	for i, gen := range trace.GeneratorNames() {
		rate := traceRate
		if gen == "allreduce" {
			rate = allreduceRate
		}
		tr, err := trace.Generate(gen, trace.GenConfig{Rows: 6, Cols: 6, Seed: seed*100 + int64(i), Rate: rate})
		if err != nil {
			return nil, fmt.Errorf("generating %s trace: %w", gen, err)
		}
		path := filepath.Join(w.TraceDir, gen+"-6x6.trace")
		if err := trace.WriteFile(path, tr); err != nil {
			return nil, err
		}
		w.TraceFiles = append(w.TraceFiles, path)
	}

	type slot struct {
		class string
		sweep spec.Sweep
	}
	var slots []slot
	shg := map[string]int{} // sparse Hamming entries drawn per class
	add := func(g int, kind string, patterns, traces []string, loads []float64) {
		class := fmt.Sprintf("%dx%d", g, g)
		slots = append(slots, slot{class, spec.Sweep{
			Label:      class,
			Mode:       string(exp.ModeLoad),
			Arch:       spec.ArchSpec{Scenario: "a", Rows: g, Cols: g},
			Topologies: []spec.TopologySpec{topology(rng, kind, g, shg[class])},
			Patterns:   patterns,
			Traces:     traces,
			Loads:      loads,
			Seeds:      simSeed(rng),
		}})
		if kind == "sparse-hamming" {
			shg[class]++
		}
	}
	for _, p := range []string{"uniform", "transpose", "hotspot"} {
		for _, f := range familiesPow2 {
			for i := 0; i < 2; i++ {
				add(4, f, []string{p}, nil, syntheticLoads)
			}
		}
		for _, f := range familiesAny {
			for i := 0; i < 3; i++ {
				add(6, f, []string{p}, nil, syntheticLoads)
			}
		}
	}
	for _, path := range w.TraceFiles {
		for _, f := range familiesAny {
			for i := 0; i < 2; i++ {
				add(6, f, nil, []string{path}, traceLoads)
			}
		}
	}
	for i, s := range byClass(rng, slots, func(s slot) string { return s.class }, []string{"6x6", "4x4"}) {
		sp := &spec.Spec{Name: fmt.Sprintf("load-sweep-%03d", i), Sweeps: []spec.Sweep{s.sweep}}
		r, err := newRequest(s.class, anyClient, sp)
		if err != nil {
			return nil, err
		}
		w.Requests = append(w.Requests, r)
	}
	w.Sizes = classSizes(w)
	return w, nil
}

// cache-rw sizes: the writer's fresh campaigns; the reader's all-hit
// resubmissions of readerSpecs specs, which go on for as long as the
// writer runs and at least readerMin times (readerMax bounds the
// generated list); the sparse Hamming configurations of each spec's
// surrogate sweep; and the filler seeds that bring the pre-filled
// cache to about 1.5k entries (12 jobs per seed), to which the writer
// adds 1.8k. The server rewrites the whole cache file after every
// campaign that finishes with unsaved results, so run time grows with
// entries x campaigns; these sizes keep a run near 25 s on a 2-core
// host.
const (
	writerRequests   = 150
	readerMin        = 150
	readerMax        = 2000
	readerSpecs      = 3
	surrogateConfigs = 6
	fillSeeds        = 125
)

// cacheRW: a writer submitting fresh campaigns (each one misses and
// makes the server save the whole cache) beside a reader resubmitting,
// for as long as the writer runs, specs whose results are all cached.
// Every spec is a cost-mode survey of the families plus a surrogate
// sweep over seeded sparse Hamming configurations, on a distinct seeded
// architecture override of a 5x5 grid.
func cacheRW(seed int64) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	type archTuple struct {
		mge, ghz float64
		bw       float64
	}
	var tuples []archTuple
	for _, mge := range []float64{20, 25, 30, 35, 40, 45} {
		for f := 8; f <= 17; f++ {
			for _, bw := range []float64{128, 256, 384, 512, 768, 1024} {
				tuples = append(tuples, archTuple{mge, float64(f) / 10, bw})
			}
		}
	}
	rng.Shuffle(len(tuples), func(i, j int) { tuples[i], tuples[j] = tuples[j], tuples[i] })
	mk := func(name string, t archTuple) *spec.Spec {
		arch := spec.ArchSpec{Scenario: "a", Rows: 5, Cols: 5, EndpointMGE: t.mge, FreqGHz: t.ghz, LinkBWBits: t.bw}
		var tops, space []spec.TopologySpec
		for _, f := range familiesAny {
			tops = append(tops, topology(rng, f, 5, 0))
		}
		// Distinct configurations: a seeded pick of the 64 offset-set
		// pairs of the 5x5 space, decoded from their bitmask.
		for _, mask := range rng.Perm(64)[:surrogateConfigs] {
			ts := spec.TopologySpec{Kind: "sparse-hamming"}
			for b := 0; b < 3; b++ {
				if mask&(1<<b) != 0 {
					ts.SR = append(ts.SR, b+2)
				}
				if mask&(8<<b) != 0 {
					ts.SC = append(ts.SC, b+2)
				}
			}
			space = append(space, ts)
		}
		return &spec.Spec{Name: name, Sweeps: []spec.Sweep{
			{Label: "families", Mode: string(exp.ModeCost), Arch: arch, Topologies: tops},
			{Label: "space", Mode: string(exp.ModeSurrogate), Arch: arch, Topologies: space},
		}}
	}

	w := &Workload{Name: CacheRW, Seed: seed, Classes: []string{"write"}, HitClass: "read", Cache: true}
	for i := 0; i < writerRequests; i++ {
		r, err := newRequest("write", writerClient, mk(fmt.Sprintf("cache-rw-write-%03d", i), tuples[i]))
		if err != nil {
			return nil, err
		}
		w.Requests = append(w.Requests, r)
	}
	readers := make([]Request, readerSpecs)
	for i := range readers {
		s := mk(fmt.Sprintf("cache-rw-read-%d", i), tuples[writerRequests+i])
		r, err := newRequest("read", readerClient, s)
		if err != nil {
			return nil, err
		}
		readers[i] = r
		w.Readers = append(w.Readers, s)
	}
	w.ReaderMin = readerMin
	order := make([]int, readerMax)
	for i := range order {
		order[i] = i % readerSpecs
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, k := range order {
		w.Requests = append(w.Requests, readers[k])
	}
	w.FillSpec = mk("cache-rw-fill", tuples[writerRequests+readerSpecs])
	w.Sizes = classSizes(w)
	return w, nil
}

// classSizes counts the primary requests of each class in w.Classes.
func classSizes(w *Workload) []int {
	sizes := make([]int, len(w.Classes))
	for _, r := range w.Requests {
		for i, c := range w.Classes {
			if r.Class == c {
				sizes[i]++
			}
		}
	}
	return sizes
}
