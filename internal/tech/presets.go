package tech

// Presets for the paper's evaluation. The 22 nm node and AXI-like
// protocol parameters are synthetic but calibrated: a KNC-like tile of
// 35 MGE comes out near 11 mm² (Knights Corner packs 62 such tiles
// into a ~700 mm² die in 22 nm), and running the MemPool architecture
// description through the toolchain lands in the ballpark of the
// paper's Table III predictions (24.26 mm², 1.447 W). See
// docs/SUBSTITUTIONS.md for the calibration story.

// Node22nm returns the 22 nm-class technology node used by all
// evaluation scenarios (Section V: "implemented in a 22 nm technology
// node for which we know the necessary architectural parameters").
func Node22nm() *Node {
	return &Node{
		Name:        "22nm",
		GateAreaUm2: 0.32,
		// Five signal-routing layers: three horizontal, two vertical,
		// mirroring the worked example in Section IV-B1.
		HorizontalPitchesNm: []float64{100, 120, 160},
		VerticalPitchesNm:   []float64{90, 110},
		LogicPowerWPerMm2:   0.064,
		WirePowerWPerMm2:    0.040,
		WireDelaySPerMm:     66e-12, // buffered global wire, ~66 ps/mm
	}
}

// ProtocolAXI returns an AXI-like transport protocol model (the paper
// uses AXI with the open-source components of Kurth et al.): separate
// request/response wiring plus handshake overhead, and an input-queued
// router with 8 virtual channels and 32-flit buffers per the paper's
// evaluation configuration.
func ProtocolAXI() *Protocol {
	return &Protocol{
		Name:        "axi",
		WiresPerBit: 1.35, // R/W payload sharing plus ~35% addr/resp/handshake
		WireFixed:   64,
		// Router area: flip-flop based input buffers, word-wide
		// crossbar muxes, and allocator overhead.
		RouterBaseGE:     5.0e3,
		BufGEPerBit:      8,  // FF + mux per buffered bit (NumVCs*BufDepth*B per port)
		XbarGEPerBitSq:   70, // per (m*s) per datapath bit
		CtrlGEPerPortBit: 9,  // per (m+s) per datapath bit
		NumVCs:           8,
		BufDepthFlits:    32,
	}
}

// ScenarioID names one of the paper's four evaluation scenarios.
type ScenarioID string

// The four scenarios of Section V-b.
const (
	ScenarioA ScenarioID = "a" // 64 tiles, 35 MGE, 1 core each
	ScenarioB ScenarioID = "b" // 64 tiles, 70 MGE, 2 cores each
	ScenarioC ScenarioID = "c" // 128 tiles, 35 MGE, 1 core each
	ScenarioD ScenarioID = "d" // 128 tiles, 70 MGE, 2 cores each
)

// Scenario returns the KNC-like architecture of the given evaluation
// scenario: 512 bits/cycle per-link bandwidth at 1.2 GHz in the 22 nm
// node with the AXI-like protocol. Scenarios c and d use a 8x16 grid
// (128 = 2*8^2 tiles, so SlimNoC is applicable there and only there).
func Scenario(id ScenarioID) *Arch {
	a := &Arch{
		Name:         "knc-" + string(id),
		Rows:         8,
		Cols:         8,
		EndpointGE:   35e6,
		TileAspect:   1.0,
		FreqHz:       1.2e9,
		LinkBWBits:   512,
		CoresPerTile: 1,
		Node:         Node22nm(),
		Proto:        ProtocolAXI(),
	}
	switch id {
	case ScenarioA:
	case ScenarioB:
		a.EndpointGE = 70e6
		a.CoresPerTile = 2
	case ScenarioC:
		a.Cols = 16
	case ScenarioD:
		a.Cols = 16
		a.EndpointGE = 70e6
		a.CoresPerTile = 2
	default:
		return nil
	}
	return a
}

// AllScenarios returns the four scenario IDs in paper order.
func AllScenarios() []ScenarioID {
	return []ScenarioID{ScenarioA, ScenarioB, ScenarioC, ScenarioD}
}

// PresetNames lists every name ArchByName resolves: the four
// evaluation scenarios in paper order, then "mempool". The campaign
// service's registry endpoint exports this catalog, so extending
// ArchByName must extend this list too.
func PresetNames() []string {
	names := make([]string, 0, 5)
	for _, id := range AllScenarios() {
		names = append(names, string(id))
	}
	return append(names, "mempool")
}

// ArchByName resolves a preset architecture by its short job-spec
// name: "a".."d" for the evaluation scenarios or "mempool". It
// returns nil for unknown names, like Scenario does. The experiment
// campaign evaluators (packages noc and dse) share this mapping.
func ArchByName(name string) *Arch {
	if name == "mempool" {
		return MemPool()
	}
	return Scenario(ScenarioID(name))
}

// MemPool returns an architecture description of the MemPool manycore
// (Cavalcante et al., DATE 2021) used for the toolchain validation in
// Table III: 256 cores and 1024 memory banks grouped into 64 tiles
// (4 cores + 16 banks each) in 22 nm, with a narrower 32-bit
// low-latency interconnect at 500 MHz. Endpoint size is chosen so the
// no-NoC area matches MemPool's published compute area; the published
// "correct values" of Table III are recorded in package noc.
func MemPool() *Arch {
	return &Arch{
		Name:         "mempool",
		Rows:         8,
		Cols:         8,
		EndpointGE:   0.9e6, // 4 Snitch cores + 16 SPM banks per tile
		TileAspect:   1.0,
		FreqHz:       500e6,
		LinkBWBits:   32,
		CoresPerTile: 4,
		Node:         Node22nm(),
		Proto: &Protocol{
			Name:             "mempool-tcdm",
			WiresPerBit:      1.2, // lean parallel req/rsp wiring
			WireFixed:        12,
			RouterBaseGE:     2.0e3,
			BufGEPerBit:      8,
			XbarGEPerBitSq:   12, // lean single-cycle crossbar muxes
			CtrlGEPerPortBit: 9,
			NumVCs:           2, // shallow, latency-optimized buffering
			BufDepthFlits:    2,
		},
	}
}
