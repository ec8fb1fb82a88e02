// Package phys implements the paper's custom NoC cost model
// (Section IV-B, Figures 4 and 5): a fast approximate-floorplanning
// and link-routing model that predicts a NoC's area overhead, power
// consumption, and the latency of every router-to-router link.
//
// The model runs in five steps:
//
//  1. Tile area estimate and placement in an R x C grid.
//  2. Global routing of links in the grid of tiles (greedy channel
//     assignment; links may not cross over tiles).
//  3. Estimation of the spacing between rows and columns of tiles
//     from the densest section of each routing channel.
//  4. Discretization of the chip into same-sized unit-cells, each
//     accommodating exactly one horizontal and one vertical link.
//     Only the grid's geometry is computed (cell size, the cell
//     origin of every tile and channel); its cells are never
//     materialized.
//  5. Detailed routing in the grid of unit-cells (track assignment
//     via left-edge interval coloring, collision-avoiding stub
//     placement). Each link becomes a few straight wire runs; the
//     occupied-cell counts of the power model and the collision count
//     come from sorting and merging those runs per direction, so the
//     model's work and memory grow with the number of links, not with
//     the chip's cell count.
//
// The outputs (area overhead, power, per-link latencies) feed the
// cycle-accurate simulator in package sim, mirroring the toolchain of
// Figure 3.
package phys

import (
	"fmt"
	"math"

	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// Result is the full output of the five-step model.
type Result struct {
	// Geometry (step 1/3/4).
	TileWidthMm  float64
	TileHeightMm float64
	CellWidthMm  float64 // W_C
	CellHeightMm float64 // H_C
	ChipWidthMm  float64
	ChipHeightMm float64
	CellsX       int
	CellsY       int

	// Router sizing (step 1).
	RouterGE    float64 // f_AR for the maximum-radix router (tiles are identical)
	MaxPortsIn  int     // manager ports m of that router
	MaxPortsOut int     // subordinate ports s

	// Channel structure (steps 2/3): track count per channel.
	HChanTracks []int // length R+1, index g = channel above row g
	VChanTracks []int // length C+1, index g = channel left of column g

	// Area (step 4).
	TotalAreaMm2 float64 // A_tot = N_cell * A_C
	NoNoCAreaMm2 float64 // A_noNoC
	AreaOverhead float64 // (A_tot - A_noNoC) / A_tot, in [0,1)

	// Power (step 5 occupancy counts).
	NLogicCells int // N^L_cell
	NHCells     int // N^H_cell
	NVCells     int // N^V_cell
	TotalPowerW float64
	NoNoCPowerW float64
	NoCPowerW   float64

	// Per-link results (step 5), indexed like Topology.Links().
	LinkLengthsMm []float64
	LinkLatencies []int // cycles, >= 1
	Collisions    int   // extra same-direction claims on unit-cells: a cell claimed k times adds k-1

	// ULD metric: utilization of allocated channel area in [0,1];
	// 1 means every allocated track is fully used along its channel
	// (uniform link density), small values mean wasted spacing.
	ChannelUtilization float64
}

// Evaluate runs the five-step model for a topology on an architecture.
func Evaluate(arch *tech.Arch, t *topo.Topology) (*Result, error) {
	if err := arch.Validate(); err != nil {
		return nil, err
	}
	if t.Rows != arch.Rows || t.Cols != arch.Cols {
		return nil, fmt.Errorf("phys: topology grid %dx%d does not match architecture %dx%d",
			t.Rows, t.Cols, arch.Rows, arch.Cols)
	}
	p := newPlan(arch, t)
	p.sizeTiles()     // step 1
	p.globalRoute()   // step 2
	p.assignTracks()  // steps 3+5a: spacing follows from track counts
	p.buildCellGrid() // step 4
	p.detailedRoute() // step 5b
	return p.results(), nil
}

// plan carries the intermediate state of the five steps.
type plan struct {
	arch *tech.Arch
	topo *topo.Topology

	wiresPerLink float64 // f_bw→wires(B)

	// Step 1.
	tileW, tileH float64 // mm
	routerGE     float64
	portsIn      int
	portsOut     int

	// Step 2/3: channels. hchan[g] lies above row g (g in 0..R),
	// vchan[g] lies left of column g (g in 0..C).
	hchan []*channel
	vchan []*channel

	routes []route

	// Step 4: cell geometry.
	cellW, cellH   float64
	tileCellsX     int
	tileCellsY     int
	tileX0, chanX0 []int // cell x origin of tile column c / v-channel g
	tileY0, chanY0 []int // cell y origin of tile row r / h-channel g
	cellsX, cellsY int

	// Step 5.
	hRuns, vRuns []wireRun // wire segments by direction
	linkLenMm    []float64
	linkLatency  []int

	// Port slot allocation: stub positions handed out so far per tile
	// face, indexed 4*tile + the face's position in "NSEW".
	portSlots []int
}

func newPlan(arch *tech.Arch, t *topo.Topology) *plan {
	return &plan{
		arch:         arch,
		topo:         t,
		wiresPerLink: arch.Proto.BWToWires(arch.LinkBWBits),
		portSlots:    make([]int, 4*t.NumTiles()),
	}
}

// sizeTiles performs step 1: router sizing and tile dimensions.
// Tiles are identical building blocks, so every tile is sized for the
// maximum-radix router in the topology.
func (p *plan) sizeTiles() {
	maxRadix := p.topo.MaxRadix()
	local := p.arch.CoresPerTile
	if local < 1 {
		local = 1
	}
	p.portsIn = maxRadix + local
	p.portsOut = maxRadix + local
	p.routerGE = p.arch.Proto.RouterAreaGE(p.portsIn, p.portsOut, p.arch.LinkBWBits)

	tileGE := p.arch.EndpointGE + p.routerGE // A_T = A_E + A_R
	tileArea := p.arch.Node.GEToMm2(tileGE)
	p.tileH = math.Sqrt(p.arch.TileAspect * tileArea)
	p.tileW = math.Sqrt(tileArea / p.arch.TileAspect)
}

// results assembles the Result from the completed plan.
func (p *plan) results() *Result {
	n := p.arch.Node
	cellArea := p.cellW * p.cellH
	totalArea := float64(p.cellsX*p.cellsY) * cellArea
	noNoC := p.arch.NoNoCAreaMm2()

	nLogic := p.topo.NumTiles() * p.tileCellsX * p.tileCellsY
	nH, hColl := occupancy(p.hRuns)
	nV, vColl := occupancy(p.vRuns)

	totalPower := n.LogicPower(float64(nLogic)*cellArea) +
		n.WirePower(float64(nH+nV)*cellArea/2)
	noNoCPower := n.LogicPower(noNoC)

	res := &Result{
		TileWidthMm:        p.tileW,
		TileHeightMm:       p.tileH,
		CellWidthMm:        p.cellW,
		CellHeightMm:       p.cellH,
		ChipWidthMm:        float64(p.cellsX) * p.cellW,
		ChipHeightMm:       float64(p.cellsY) * p.cellH,
		CellsX:             p.cellsX,
		CellsY:             p.cellsY,
		RouterGE:           p.routerGE,
		MaxPortsIn:         p.portsIn,
		MaxPortsOut:        p.portsOut,
		HChanTracks:        channelTracks(p.hchan),
		VChanTracks:        channelTracks(p.vchan),
		TotalAreaMm2:       totalArea,
		NoNoCAreaMm2:       noNoC,
		AreaOverhead:       (totalArea - noNoC) / totalArea,
		NLogicCells:        nLogic,
		NHCells:            nH,
		NVCells:            nV,
		TotalPowerW:        totalPower,
		NoNoCPowerW:        noNoCPower,
		NoCPowerW:          totalPower - noNoCPower,
		LinkLengthsMm:      p.linkLenMm,
		LinkLatencies:      p.linkLatency,
		Collisions:         hColl + vColl,
		ChannelUtilization: p.channelUtilization(),
	}
	return res
}

func channelTracks(chs []*channel) []int {
	out := make([]int, len(chs))
	for i, c := range chs {
		out[i] = c.tracks
	}
	return out
}

// channelUtilization computes the ULD metric: the fraction of
// allocated channel track-length that is actually occupied by link
// runs, over all channels with at least one track. Topologies without
// long links (no tracks anywhere) are vacuously uniform (1.0).
func (p *plan) channelUtilization() float64 {
	var used, alloc float64
	for _, ch := range append(append([]*channel{}, p.hchan...), p.vchan...) {
		if ch.tracks == 0 {
			continue
		}
		for _, o := range ch.occ {
			used += float64(o)
		}
		alloc += float64(ch.tracks * len(ch.occ))
	}
	if alloc == 0 {
		return 1
	}
	return used / alloc
}
