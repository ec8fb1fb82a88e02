package phys

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"sparsehamming/internal/topo"
)

// buildCellGrid performs step 4: discretize the chip into unit-cells
// of W_C x H_C, where a unit-cell accommodates exactly one horizontal
// and one vertical link bundle:
//
//	H_C = f^H_wires→mm(f_bw→wires(B))
//	W_C = f^V_wires→mm(f_bw→wires(B))
//
// Because channel spacing is S = f_wires→mm(NL * f_bw→wires(B)) =
// NL * cell size, a channel with NL tracks is exactly NL cells wide,
// so the cell grid is assembled directly from tile blocks and track
// counts. Only its geometry is computed: the cells themselves are
// never materialized, since step 5 records wire runs rather than
// per-cell counts.
func (p *plan) buildCellGrid() {
	n := p.arch.Node
	p.cellH = n.HWiresToMm(p.wiresPerLink)
	p.cellW = n.VWiresToMm(p.wiresPerLink)
	p.tileCellsX = int(math.Ceil(p.tileW / p.cellW))
	p.tileCellsY = int(math.Ceil(p.tileH / p.cellH))

	R, C := p.topo.Rows, p.topo.Cols
	p.chanX0 = make([]int, C+1)
	p.tileX0 = make([]int, C)
	x := 0
	for c := 0; c <= C; c++ {
		p.chanX0[c] = x
		x += p.vchan[c].tracks
		if c < C {
			p.tileX0[c] = x
			x += p.tileCellsX
		}
	}
	p.cellsX = x

	p.chanY0 = make([]int, R+1)
	p.tileY0 = make([]int, R)
	y := 0
	for r := 0; r <= R; r++ {
		p.chanY0[r] = y
		y += p.hchan[r].tracks
		if r < R {
			p.tileY0[r] = y
			y += p.tileCellsY
		}
	}
	p.cellsY = y
}

// portSlot allocates the next free stub position on a tile face and
// returns its cell coordinate along that face. Positions alternate
// around the face center with a two-cell pitch so that stubs from the
// same tile never collide (optimized port placement, criterion OPP).
func (p *plan) portSlot(tile int, face byte) int {
	slot := 4*tile + strings.IndexByte("NSEW", face)
	k := p.portSlots[slot]
	p.portSlots[slot] = k + 1

	var faceLen, origin int
	coord := p.topo.CoordOf(tile)
	switch face {
	case 'N', 'S':
		faceLen, origin = p.tileCellsX, p.tileX0[coord.Col]
	default: // 'E', 'W'
		faceLen, origin = p.tileCellsY, p.tileY0[coord.Row]
	}
	offset := faceLen / 2
	step := (k + 1) / 2 * 2
	if k%2 == 1 {
		offset -= step
	} else {
		offset += step
	}
	if offset < 0 {
		offset = ((offset % faceLen) + faceLen) % faceLen
	}
	if offset >= faceLen {
		offset %= faceLen
	}
	return origin + offset
}

// detailedRoute performs step 5: realize every route as a rectilinear
// path in the unit-cell grid, record its wire runs for the occupancy
// and collision counts, and derive per-link lengths and latencies.
func (p *plan) detailedRoute() {
	links := p.topo.Links()
	p.linkLenMm = make([]float64, len(links))
	p.linkLatency = make([]int, len(links))
	for i := range p.routes {
		nH, nV := p.realizeRoute(&p.routes[i])
		// Physical length: routed distance plus the router-to-port
		// inset inside the two endpoint tiles (router at tile center).
		length := float64(nH)*p.cellW + float64(nV)*p.cellH + (p.tileW+p.tileH)/2
		p.linkLenMm[i] = length
		cycles := int(math.Ceil(p.arch.Node.WireDelay(length) * p.arch.FreqHz))
		if cycles < 1 {
			cycles = 1
		}
		p.linkLatency[i] = cycles
	}
}

// realizeRoute records the wire runs of one route and returns the
// number of horizontal and vertical cells it traverses.
func (p *plan) realizeRoute(rt *route) (nH, nV int) {
	a, b := rt.link.A, rt.link.B
	switch rt.kind {
	case crossV:
		// Straight east-west wire across vertical channel rt.vChan at
		// the source tile's east-face slot.
		y := p.portSlot(p.topo.Index(a), 'E')
		p.portSlot(p.topo.Index(b), 'W') // account for the peer port
		g := rt.vChan
		nH += p.markH(p.chanX0[g], p.chanX0[g]+p.vchan[g].tracks-1, y)
	case crossH:
		x := p.portSlot(p.topo.Index(a), 'S')
		p.portSlot(p.topo.Index(b), 'N')
		g := rt.hChan
		nV += p.markV(p.chanY0[g], p.chanY0[g]+p.hchan[g].tracks-1, x)
	case runH:
		h, v := p.realizeRunH(a, b, rt.hChan, rt.hRun)
		nH, nV = nH+h, nV+v
	case runV:
		h, v := p.realizeRunV(a, b, rt.vChan, rt.vRun)
		nH, nV = nH+h, nV+v
	case lShape:
		h, v := p.realizeLShape(a, b, rt)
		nH, nV = nH+h, nV+v
	}
	return nH, nV
}

// realizeRunH routes a same-row link along horizontal channel g:
// vertical stub out of the source tile, horizontal run on the track,
// vertical stub into the destination tile.
func (p *plan) realizeRunH(a, b topo.Coord, g int, r *run) (nH, nV int) {
	row := a.Row
	trackY := p.chanY0[g] + r.track

	faceA, faceB := byte('N'), byte('N')
	if g == row+1 {
		faceA, faceB = 'S', 'S'
	}
	xa := p.portSlot(p.topo.Index(a), faceA)
	xb := p.portSlot(p.topo.Index(b), faceB)

	nV += p.markStubV(g, trackY, xa, row)
	nV += p.markStubV(g, trackY, xb, row)
	x1, x2 := minMax(xa, xb)
	nH += p.markH(x1, x2, trackY)
	return nH, nV
}

// realizeRunV routes a same-column link along vertical channel g.
func (p *plan) realizeRunV(a, b topo.Coord, g int, r *run) (nH, nV int) {
	col := a.Col
	trackX := p.chanX0[g] + r.track

	faceA, faceB := byte('W'), byte('W')
	if g == col+1 {
		faceA, faceB = 'E', 'E'
	}
	ya := p.portSlot(p.topo.Index(a), faceA)
	yb := p.portSlot(p.topo.Index(b), faceB)

	nH += p.markStubH(g, trackX, ya, col)
	nH += p.markStubH(g, trackX, yb, col)
	y1, y2 := minMax(ya, yb)
	nV += p.markV(y1, y2, trackX)
	return nH, nV
}

// realizeLShape routes a non-aligned link: horizontal run in the
// channel adjacent to the source row, then a bend into a vertical run
// in the channel adjacent to the destination column, then a horizontal
// stub into the destination tile.
func (p *plan) realizeLShape(a, b topo.Coord, rt *route) (nH, nV int) {
	hg, vg := rt.hChan, rt.vChan
	trackY := p.chanY0[hg] + rt.hRun.track
	trackX := p.chanX0[vg] + rt.vRun.track

	// Source stub into the horizontal channel.
	faceA := byte('N')
	if hg == a.Row+1 {
		faceA = 'S'
	}
	xa := p.portSlot(p.topo.Index(a), faceA)
	nV += p.markStubV(hg, trackY, xa, a.Row)

	// Horizontal run from the source stub to the bend.
	x1, x2 := minMax(xa, trackX)
	nH += p.markH(x1, x2, trackY)

	// Destination stub out of the vertical channel.
	faceB := byte('W')
	if vg == b.Col+1 {
		faceB = 'E'
	}
	yb := p.portSlot(p.topo.Index(b), faceB)

	// Vertical run from the bend to the destination stub's row.
	y1, y2 := minMax(trackY, yb)
	nV += p.markV(y1, y2, trackX)

	// Horizontal stub from the track into the destination tile edge.
	nH += p.markStubH(vg, trackX, yb, b.Col)
	return nH, nV
}

// markStubV marks the vertical stub connecting a tile in row `row` to
// track row trackY inside horizontal channel g, at column x. The stub
// spans from the channel edge that touches the tile to the track.
func (p *plan) markStubV(g, trackY, x, row int) int {
	var edgeY int
	if g == row {
		// Channel above the row: tile's top edge is the channel's
		// bottom, i.e. the last channel cell row.
		edgeY = p.chanY0[g] + p.hchan[g].tracks - 1
	} else {
		// Channel below the row: tile's bottom edge is the channel's
		// first cell row.
		edgeY = p.chanY0[g]
	}
	y1, y2 := minMax(trackY, edgeY)
	return p.markV(y1, y2, x)
}

// markStubH marks the horizontal stub connecting a tile in column
// `col` to track column trackX inside vertical channel g, at row y.
func (p *plan) markStubH(g, trackX, y, col int) int {
	var edgeX int
	if g == col {
		edgeX = p.chanX0[g] + p.vchan[g].tracks - 1
	} else {
		edgeX = p.chanX0[g]
	}
	x1, x2 := minMax(trackX, edgeX)
	return p.markH(x1, x2, y)
}

// wireRun is one straight wire segment: cells lo..hi (inclusive)
// along grid line `line` — a cell row for horizontal runs, a cell
// column for vertical ones.
type wireRun struct {
	line, lo, hi int
}

// markH records a horizontal wire segment over cells [x1,x2] of row y
// and returns the number of cells it covers. Coordinates are clamped
// to the grid; an inverted range covers nothing.
func (p *plan) markH(x1, x2, y int) int {
	if x1 > x2 {
		return 0
	}
	x1, x2 = clamp(x1, 0, p.cellsX-1), clamp(x2, 0, p.cellsX-1)
	y = clamp(y, 0, p.cellsY-1)
	p.hRuns = append(p.hRuns, wireRun{line: y, lo: x1, hi: x2})
	return x2 - x1 + 1
}

// markV records a vertical wire segment over cells [y1,y2] of column x.
func (p *plan) markV(y1, y2, x int) int {
	if y1 > y2 {
		return 0
	}
	y1, y2 = clamp(y1, 0, p.cellsY-1), clamp(y2, 0, p.cellsY-1)
	x = clamp(x, 0, p.cellsX-1)
	p.vRuns = append(p.vRuns, wireRun{line: x, lo: y1, hi: y2})
	return y2 - y1 + 1
}

// occupancy counts the unit-cells covered by one direction's runs and
// the collisions among them: every cell claimed by k > 1 runs adds
// k-1 collisions, so collisions = total run length - union length.
// It sorts runs in place by (line, lo) and merges overlapping ones, in
// O(n log n) for n runs regardless of the grid's size.
func occupancy(runs []wireRun) (cells, collisions int) {
	slices.SortFunc(runs, func(a, b wireRun) int {
		if c := cmp.Compare(a.line, b.line); c != 0 {
			return c
		}
		return cmp.Compare(a.lo, b.lo)
	})
	marked := 0
	for i := 0; i < len(runs); {
		// Absorb every following run that starts inside the union.
		cur := runs[i]
		marked += cur.hi - cur.lo + 1
		for i++; i < len(runs) && runs[i].line == cur.line && runs[i].lo <= cur.hi; i++ {
			marked += runs[i].hi - runs[i].lo + 1
			cur.hi = max(cur.hi, runs[i].hi)
		}
		cells += cur.hi - cur.lo + 1
	}
	return cells, marked - cells
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
