package noc

// This file holds the toolchain's simulation builds: build resolves
// the cost model, routing, and simulator Shape of one topology, and
// shapeMemo shares those builds across the jobs of a campaign runner.
// A load sweep's points, a topology's quality tiers, patterns, and
// seeds all resolve to one memo entry, so they pay the channel wiring
// and output-port LUT once, and predict jobs whose zero-load reference
// runs coincide share that run too. Results are bit-identical to a
// fresh build per job: replicas share no mutable state (pinned by the
// sim package's differential harness, and by the memo-versus-EvalJob
// parity tests here).

import (
	"fmt"
	"strings"
	"sync"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/obs"
	"sparsehamming/internal/phys"
	"sparsehamming/internal/route"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// shapeMemoCap bounds the memo's entries. A Shape holds a per-pair
// output-port LUT (a few MB on a 256-tile grid), so the memo keeps
// the recently used topologies of a campaign service, not all of
// them.
const shapeMemoCap = 16

// anchorCap bounds one entry's zero-load anchors; a full entry drops
// them all and starts over (a dropped anchor only costs a rerun).
const anchorCap = 256

// build is the resolved simulation build of one topology: its
// architecture, the cost model's link latencies, the routing, and the
// simulator Shape over them. It is read-only once built, so any
// number of jobs may simulate from it concurrently.
type build struct {
	arch *tech.Arch
	t    *topo.Topology
	cost *phys.Result
	rt   *route.Routing
	sh   *sim.Shape
}

// newBuild resolves the build of topology t on arch under the named
// routing, recording the cost model's time as a "cost" child of span.
func newBuild(arch *tech.Arch, t *topo.Topology, routing string, span *obs.Span) (*build, error) {
	cs := span.Child("cost")
	cost, err := phys.Evaluate(arch, t)
	cs.End()
	if err != nil {
		return nil, err
	}
	rt, err := route.ForName(t, routing)
	if err != nil {
		return nil, err
	}
	if arch.Proto.NumVCs < rt.NumClasses {
		return nil, fmt.Errorf("noc: %d VCs cannot host the %d VC classes of %s",
			arch.Proto.NumVCs, rt.NumClasses, rt.Name)
	}
	b := &build{arch: arch, t: t, cost: cost, rt: rt}
	if b.sh, err = sim.NewShape(b.config()); err != nil {
		return nil, err
	}
	return b, nil
}

// buildForJob resolves a simulating job's build afresh.
func buildForJob(j exp.Job, span *obs.Span) (*build, error) {
	arch, err := ArchForJob(j)
	if err != nil {
		return nil, err
	}
	t, err := topo.ByName(j.Topo, arch.Rows, arch.Cols, j.SR, j.SC)
	if err != nil {
		return nil, err
	}
	return newBuild(arch, t, j.Routing, span)
}

// config returns the simulator configuration of the build's shape;
// callers fill in the traffic, seed, and schedule per run.
func (b *build) config() sim.Config {
	return sim.Config{
		Topo: b.t, Routing: b.rt,
		NumVCs: b.arch.Proto.NumVCs, BufDepth: b.arch.Proto.BufDepthFlits,
		LinkLatency: b.cost.LinkLatencies, RouterDelay: RouterDelay,
		PacketLen: packetLen(b.arch),
	}
}

// shapeKey renders the job fields that determine its build: grid,
// architecture, topology instance, and routing. Mode, pattern, load,
// quality, and seed only parameterize runs over the build.
func shapeKey(j exp.Job) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario=%s|rows=%d|cols=%d|topo=%s|sr=%v|sc=%v|routing=%s",
		j.Scenario, j.Rows, j.Cols, j.Topo, j.SR, j.SC, j.Routing)
	if o := j.Arch; !o.IsZero() {
		fmt.Fprintf(&b, "|arch=ge:%g,cores:%d,freq:%g,bw:%g,vcs:%d,buf:%d,aspect:%g",
			o.EndpointGE, o.CoresPerTile, o.FreqHz, o.LinkBWBits,
			o.NumVCs, o.BufDepthFlits, o.TileAspect)
	}
	return b.String()
}

// shapeMemo is a bounded, content-keyed memo of builds, evicting the
// least recently used entry when full. The zero value is not ready;
// use newShapeMemo. A nil memo builds afresh for every job.
type shapeMemo struct {
	mu      sync.Mutex
	tick    uint64
	entries map[string]*memoEntry
}

// memoEntry is one memoized build plus the zero-load anchors of the
// saturation searches run over it.
type memoEntry struct {
	once sync.Once
	b    *build
	err  error
	used uint64 // memo tick of the last lookup, guarded by shapeMemo.mu

	anchorMu sync.Mutex
	anchors  map[anchorKey]*sim.ZeroLoadAnchor
}

// anchorKey identifies the zero-load reference runs that coincide
// over one build: same pattern, seed, and sim.ZeroLoadScheduleKey.
type anchorKey struct {
	pattern string
	seed    int64
	window  int
}

// newShapeMemo returns an empty memo.
func newShapeMemo() *shapeMemo {
	return &shapeMemo{entries: map[string]*memoEntry{}}
}

// get returns the job's build, resolving it on the first lookup of
// its key — concurrent lookups of one key wait for that single build,
// so the build's Shape is one pointer every replica matches. Build
// errors are memoized like builds (they are functions of the key). A
// nil memo resolves a fresh build and returns a nil entry.
func (m *shapeMemo) get(j exp.Job, span *obs.Span) (*build, *memoEntry, error) {
	if m == nil {
		b, err := buildForJob(j, span)
		return b, nil, err
	}
	key := shapeKey(j)
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		if len(m.entries) >= shapeMemoCap {
			m.evictLocked()
		}
		e = &memoEntry{}
		m.entries[key] = e
	}
	m.tick++
	e.used = m.tick
	m.mu.Unlock()

	e.once.Do(func() {
		// Stays set if the build panics, so later lookups fail cleanly.
		e.err = fmt.Errorf("noc: build of %s did not complete", j.Topo)
		e.b, e.err = buildForJob(j, span)
	})
	return e.b, e, e.err
}

// evictLocked drops the least recently used entry. Jobs still holding
// it finish unaffected; the next lookup of its key builds anew.
func (m *shapeMemo) evictLocked() {
	var oldest string
	var used uint64
	for k, e := range m.entries {
		if oldest == "" || e.used < used {
			oldest, used = k, e.used
		}
	}
	delete(m.entries, oldest)
}

// anchor returns the entry's shared zero-load anchor for a saturation
// search with the given pattern, seed, and measurement window, or nil
// (no sharing) for a nil entry.
func (e *memoEntry) anchor(pattern string, seed int64, measure int) *sim.ZeroLoadAnchor {
	if e == nil {
		return nil
	}
	key := anchorKey{pattern, seed, sim.ZeroLoadScheduleKey(measure)}
	e.anchorMu.Lock()
	defer e.anchorMu.Unlock()
	a := e.anchors[key]
	if a == nil {
		if e.anchors == nil || len(e.anchors) >= anchorCap {
			e.anchors = map[anchorKey]*sim.ZeroLoadAnchor{}
		}
		a = &sim.ZeroLoadAnchor{}
		e.anchors[key] = a
	}
	return a
}
