package phys

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// planFor builds a fully-evaluated plan for white-box inspection.
func planFor(t *testing.T, arch *tech.Arch, tp *topo.Topology) *plan {
	t.Helper()
	p := newPlan(arch, tp)
	p.sizeTiles()
	p.globalRoute()
	p.assignTracks()
	p.buildCellGrid()
	p.detailedRoute()
	return p
}

func TestCellGridGeometry(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	tp, err := topo.NewSparseHamming(8, 8, topo.HammingParams{SR: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	p := planFor(t, arch, tp)

	// Channel g's cell extent equals its track count, and tiles slot
	// exactly between channels.
	x := 0
	for c := 0; c <= 8; c++ {
		if p.chanX0[c] != x {
			t.Fatalf("v-channel %d origin %d, want %d", c, p.chanX0[c], x)
		}
		x += p.vchan[c].tracks
		if c < 8 {
			if p.tileX0[c] != x {
				t.Fatalf("tile col %d origin %d, want %d", c, p.tileX0[c], x)
			}
			x += p.tileCellsX
		}
	}
	if p.cellsX != x {
		t.Fatalf("cellsX %d, want %d", p.cellsX, x)
	}
	// Tile dimensions quantize up.
	if float64(p.tileCellsX)*p.cellW < p.tileW {
		t.Error("tile cells narrower than tile")
	}
}

func TestTrackAssignmentNoOverlap(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	fb, err := topo.NewFlattenedButterfly(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := planFor(t, arch, fb)
	// Within every channel, two runs on the same track never overlap.
	for _, ch := range append(append([]*channel{}, p.hchan...), p.vchan...) {
		for i, a := range ch.runs {
			if a.track >= ch.tracks {
				t.Fatalf("run track %d >= channel tracks %d", a.track, ch.tracks)
			}
			for _, b := range ch.runs[i+1:] {
				if a.track == b.track && a.from <= b.to && b.from <= a.to {
					t.Fatalf("overlapping runs [%d,%d] and [%d,%d] share track %d",
						a.from, a.to, b.from, b.to, a.track)
				}
			}
		}
	}
}

func TestPortSlotsDistinctPerFace(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	fb, err := topo.NewFlattenedButterfly(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(arch, fb)
	p.sizeTiles()
	p.globalRoute()
	p.assignTracks()
	p.buildCellGrid()
	// Allocate a dozen slots on one face: all distinct, all in range.
	seen := map[int]bool{}
	for k := 0; k < 12; k++ {
		x := p.portSlot(0, 'N')
		if x < p.tileX0[0] || x >= p.tileX0[0]+p.tileCellsX {
			t.Fatalf("slot %d outside tile face", x)
		}
		if seen[x] {
			t.Fatalf("duplicate slot %d", x)
		}
		seen[x] = true
	}
}

func TestLShapeRealization(t *testing.T) {
	// SlimNoC has non-aligned links; its routes must produce both
	// horizontal and vertical cells and stay collision-accounted.
	arch := tech.Scenario(tech.ScenarioC)
	sn, err := topo.NewSlimNoC(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := planFor(t, arch, sn)
	sawL := false
	for _, rt := range p.routes {
		if rt.kind == lShape {
			sawL = true
			if rt.hChan < 0 || rt.vChan < 0 || rt.hRun == nil || rt.vRun == nil {
				t.Fatal("l-shape route missing channel assignment")
			}
		}
	}
	if !sawL {
		t.Fatal("slimnoc produced no L-shaped routes")
	}
	// Every link got a positive physical length and latency.
	for i := range p.linkLenMm {
		if p.linkLenMm[i] <= 0 || p.linkLatency[i] < 1 {
			t.Fatalf("link %d: length %v latency %d", i, p.linkLenMm[i], p.linkLatency[i])
		}
	}
}

func TestMarkCollisionCounting(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	m, err := topo.NewMesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(arch, m)
	p.sizeTiles()
	p.globalRoute()
	p.assignTracks()
	p.buildCellGrid()
	// Marking only records runs; counts come from merging them.
	collisions := func() int {
		_, h := occupancy(p.hRuns)
		_, v := occupancy(p.vRuns)
		return h + v
	}
	// Two horizontal segments over the same cells: second one collides.
	if n := p.markH(10, 14, 5); n != 5 {
		t.Fatalf("marked %d cells, want 5", n)
	}
	if c := collisions(); c != 0 {
		t.Fatalf("collisions after first mark = %d", c)
	}
	p.markH(12, 16, 5)
	if c := collisions(); c != 3 { // cells 12,13,14 double-claimed
		t.Errorf("collisions = %d, want 3", c)
	}
	if cells, _ := occupancy(p.hRuns); cells != 7 { // cells 10..16
		t.Errorf("occupied horizontal cells = %d, want 7", cells)
	}
	// Vertical direction is independent: no extra collisions.
	before := collisions()
	p.markV(3, 7, 12)
	if collisions() != before {
		t.Error("vertical mark collided with horizontal occupancy")
	}
	// Degenerate/clamped ranges.
	if n := p.markH(5, 4, 0); n != 0 {
		t.Errorf("inverted range marked %d cells", n)
	}
	if n := p.markV(-10, -5, 0); n == 0 {
		// Clamped to a single cell at the boundary; any non-negative
		// count is fine, but it must not panic.
		_ = n
	}
}

// denseGrid is the former step-5 counter, kept as a test oracle: one
// counter per unit-cell and direction, marked cell by cell, with a
// collision counted whenever a cell is claimed again.
type denseGrid struct {
	cellsX, cellsY int
	hOcc, vOcc     []uint16
	collisions     int
}

func newDenseGrid(cellsX, cellsY int) *denseGrid {
	return &denseGrid{
		cellsX: cellsX, cellsY: cellsY,
		hOcc: make([]uint16, cellsX*cellsY),
		vOcc: make([]uint16, cellsX*cellsY),
	}
}

func (g *denseGrid) markH(x1, x2, y int) int {
	if x1 > x2 {
		return 0
	}
	x1, x2 = clamp(x1, 0, g.cellsX-1), clamp(x2, 0, g.cellsX-1)
	y = clamp(y, 0, g.cellsY-1)
	for x := x1; x <= x2; x++ {
		idx := y*g.cellsX + x
		g.hOcc[idx]++
		if g.hOcc[idx] > 1 {
			g.collisions++
		}
	}
	return x2 - x1 + 1
}

func (g *denseGrid) markV(y1, y2, x int) int {
	if y1 > y2 {
		return 0
	}
	y1, y2 = clamp(y1, 0, g.cellsY-1), clamp(y2, 0, g.cellsY-1)
	x = clamp(x, 0, g.cellsX-1)
	for y := y1; y <= y2; y++ {
		idx := y*g.cellsX + x
		g.vOcc[idx]++
		if g.vOcc[idx] > 1 {
			g.collisions++
		}
	}
	return y2 - y1 + 1
}

// occupied returns the number of cells with a horizontal and with a
// vertical segment.
func (g *denseGrid) occupied() (nH, nV int) {
	for i := range g.hOcc {
		if g.hOcc[i] > 0 {
			nH++
		}
		if g.vOcc[i] > 0 {
			nV++
		}
	}
	return nH, nV
}

// checkAgainstDense compares the run-merging counts of p with the
// dense oracle g.
func checkAgainstDense(t *testing.T, label string, p *plan, g *denseGrid) {
	t.Helper()
	nH, hColl := occupancy(p.hRuns)
	nV, vColl := occupancy(p.vRuns)
	wH, wV := g.occupied()
	if nH != wH || nV != wV || hColl+vColl != g.collisions {
		t.Fatalf("%s: runs give H %d V %d collisions %d, dense grid H %d V %d collisions %d",
			label, nH, nV, hColl+vColl, wH, wV, g.collisions)
	}
}

// TestOccupancyMatchesDenseGrid drives random run sets — overlapping,
// nested, adjacent, repeated, inverted and out-of-grid (clamped) runs
// in both directions — through the plan's markers and the dense-grid
// oracle, and requires identical per-call cell counts, occupied-cell
// counts and collision counts.
func TestOccupancyMatchesDenseGrid(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 5))
	// coord draws a coordinate up to 4 cells outside [0, n).
	coord := func(n int) int { return rng.IntN(n+8) - 4 }
	for trial := 0; trial < 2000; trial++ {
		p := &plan{cellsX: 1 + rng.IntN(24), cellsY: 1 + rng.IntN(24)}
		g := newDenseGrid(p.cellsX, p.cellsY)
		var prev wireRun
		for k := rng.IntN(40); k > 0; k-- {
			horiz := rng.IntN(2) == 0
			along, across := p.cellsX, p.cellsY
			if !horiz {
				along, across = across, along
			}
			r := wireRun{line: coord(across), lo: coord(along), hi: coord(along)}
			switch rng.IntN(6) {
			case 0: // sorted range
				r.lo, r.hi = minMax(r.lo, r.hi)
			case 1: // adjacent to the previous run on its line
				r.line, r.lo = prev.line, prev.hi+1
				r.hi = r.lo + rng.IntN(4)
			case 2: // overlapping or nested in the previous run
				r.line = prev.line
				r.lo = prev.lo + rng.IntN(3) - 1
				r.hi = max(r.lo, prev.hi+rng.IntN(3)-1)
			case 3: // exact repeat
				r = prev
			}
			// Other cases keep the raw draw, inverted ranges included.
			var got, want int
			if horiz {
				got, want = p.markH(r.lo, r.hi, r.line), g.markH(r.lo, r.hi, r.line)
			} else {
				got, want = p.markV(r.lo, r.hi, r.line), g.markV(r.lo, r.hi, r.line)
			}
			if got != want {
				t.Fatalf("trial %d: mark %+v returned %d cells, dense grid %d", trial, r, got, want)
			}
			prev = r
		}
		checkAgainstDense(t, fmt.Sprintf("trial %d (%dx%d)", trial, p.cellsX, p.cellsY), p, g)
	}
}

// TestOccupancyMatchesDenseGridOnRoutedPlans replays the wire runs of
// fully routed plans — including topologies that route with
// collisions — into the dense oracle.
func TestOccupancyMatchesDenseGridOnRoutedPlans(t *testing.T) {
	for _, tc := range []struct {
		scenario tech.ScenarioID
		kind     string
	}{
		{tech.ScenarioA, "flattened-butterfly"},
		{tech.ScenarioA, "sparse-hamming"},
		{tech.ScenarioB, "folded-torus"},
		{tech.ScenarioC, "slimnoc"},
		{tech.ScenarioD, "flattened-butterfly"},
	} {
		arch := tech.Scenario(tc.scenario)
		tp, err := topo.ByName(tc.kind, arch.Rows, arch.Cols, []int{2, 4}, []int{3})
		if err != nil {
			t.Fatal(err)
		}
		p := planFor(t, arch, tp)
		g := newDenseGrid(p.cellsX, p.cellsY)
		for _, r := range p.hRuns {
			g.markH(r.lo, r.hi, r.line)
		}
		for _, r := range p.vRuns {
			g.markV(r.lo, r.hi, r.line)
		}
		checkAgainstDense(t, string(tc.scenario)+"/"+tc.kind, p, g)
	}
}

// TestEvaluateAllocatesPerLink guards the cost model's memory: one
// Evaluate of the largest evaluation topology (the 8x16 flattened
// butterfly of scenario c) must allocate bytes in proportion to its
// link count, not to its unit-cell count.
func TestEvaluateAllocatesPerLink(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioC)
	fb, err := topo.NewFlattenedButterfly(arch.Rows, arch.Cols)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(arch, fb) // warm up lazily built topology state
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Evaluate(arch, fb); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs

	links := uint64(len(fb.Links()))
	const bytesPerLink = 1024
	bound := bytesPerLink * links
	t.Logf("Evaluate: %d bytes for %d links (%d B/link), %dx%d = %d cells",
		perCall, links, perCall/links, res.CellsX, res.CellsY, res.CellsX*res.CellsY)
	if perCall > bound {
		t.Errorf("Evaluate allocated %d bytes, above %d B/link x %d links = %d",
			perCall, bytesPerLink, links, bound)
	}
}

func TestAspectRatioChangesTileShape(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	arch.TileAspect = 2 // tall tiles
	m, err := topo.NewMesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(arch, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.TileHeightMm <= res.TileWidthMm {
		t.Errorf("aspect 2: height %v not above width %v", res.TileHeightMm, res.TileWidthMm)
	}
	ratio := res.TileHeightMm / res.TileWidthMm
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("aspect ratio %v, want ~2", ratio)
	}
}
