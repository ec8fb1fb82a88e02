package phys

// Golden cost-model suite: the full Result of Evaluate, link lengths
// and latencies included, is pinned for every registered topology
// family over a matrix of architectures (the four evaluation
// scenarios, MemPool, smaller and non-square grids, link bandwidth and
// tile aspect overrides) against testdata/golden_phys.json. Each entry
// stores the SHA-256 of the Result's JSON encoding — so every field
// must reproduce bit for bit — next to a few readable fields that name
// what drifted when the digest does.
//
// Regenerate after an intentional cost-model change with
//
//	go test ./internal/phys/ -run TestEvaluateGolden -update-golden

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_phys.json from the current cost model")

const goldenPhysPath = "testdata/golden_phys.json"

// goldenEntry is one pinned evaluation.
type goldenEntry struct {
	SHA256       string  `json:"sha256"` // of json.Marshal(Result)
	CellsX       int     `json:"cells_x"`
	CellsY       int     `json:"cells_y"`
	NHCells      int     `json:"n_h_cells"`
	NVCells      int     `json:"n_v_cells"`
	Collisions   int     `json:"collisions"`
	AreaOverhead float64 `json:"area_overhead"`
	NoCPowerW    float64 `json:"noc_power_w"`
	MaxLatency   int     `json:"max_link_latency"`
}

func newGoldenEntry(t *testing.T, res *Result) goldenEntry {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	e := goldenEntry{
		SHA256:       hex.EncodeToString(sum[:]),
		CellsX:       res.CellsX,
		CellsY:       res.CellsY,
		NHCells:      res.NHCells,
		NVCells:      res.NVCells,
		Collisions:   res.Collisions,
		AreaOverhead: res.AreaOverhead,
		NoCPowerW:    res.NoCPowerW,
	}
	for _, l := range res.LinkLatencies {
		e.MaxLatency = max(e.MaxLatency, l)
	}
	return e
}

// goldenArch is one named architecture of the matrix.
type goldenArch struct {
	name string
	arch *tech.Arch
}

// goldenArchs builds the architecture matrix: every preset at its own
// grid, scenario a's technology on smaller and non-square grids, and
// link-bandwidth and tile-aspect overrides on a subset of those.
func goldenArchs() []goldenArch {
	base := []goldenArch{
		{"a", tech.Scenario(tech.ScenarioA)},
		{"b", tech.Scenario(tech.ScenarioB)},
		{"c", tech.Scenario(tech.ScenarioC)},
		{"d", tech.Scenario(tech.ScenarioD)},
		{"mempool", tech.MemPool()},
	}
	for _, g := range [][2]int{{4, 4}, {5, 5}, {6, 6}, {3, 7}, {4, 8}} {
		a := tech.Scenario(tech.ScenarioA)
		a.Rows, a.Cols = g[0], g[1]
		base = append(base, goldenArch{fmt.Sprintf("a@%dx%d", g[0], g[1]), a})
	}
	out := append([]goldenArch(nil), base...)
	for _, b := range base {
		switch b.name {
		case "a", "c", "mempool", "a@5x5", "a@3x7":
		default:
			continue
		}
		for _, bw := range []float64{128, 1024} {
			a := *b.arch
			a.LinkBWBits = bw
			out = append(out, goldenArch{fmt.Sprintf("%s/bw%g", b.name, bw), &a})
		}
		for _, asp := range []float64{0.5, 2} {
			a := *b.arch
			a.TileAspect = asp
			out = append(out, goldenArch{fmt.Sprintf("%s/aspect%g", b.name, asp), &a})
		}
	}
	return out
}

// goldenTopo is one topology instance of the matrix.
type goldenTopo struct {
	name   string
	kind   string
	sr, sc []int
}

// goldenTopos lists every registered family once with its defaults,
// plus a second sparse Hamming graph and Ruche configuration.
func goldenTopos(rows, cols int) []goldenTopo {
	var out []goldenTopo
	for _, kind := range topo.Names() {
		out = append(out, goldenTopo{name: kind, kind: kind})
	}
	sr, sc := []int{rows / 2}, []int{2, cols - 2}
	out = append(out,
		goldenTopo{name: fmt.Sprintf("sparse-hamming/sr%v/sc%v", sr, sc), kind: "sparse-hamming", sr: sr, sc: sc},
		goldenTopo{name: "ruche/3", kind: "ruche", sr: []int{3}},
	)
	return out
}

// goldenResults evaluates the whole matrix, skipping families that
// are structurally inapplicable on a grid.
func goldenResults(t *testing.T) map[string]goldenEntry {
	t.Helper()
	got := map[string]goldenEntry{}
	for _, ga := range goldenArchs() {
		for _, gt := range goldenTopos(ga.arch.Rows, ga.arch.Cols) {
			fam, _ := topo.FamilyByName(gt.kind)
			if fam.Applicable(ga.arch.Rows, ga.arch.Cols) != nil {
				continue
			}
			tp, err := topo.ByName(gt.kind, ga.arch.Rows, ga.arch.Cols, gt.sr, gt.sc)
			if err != nil {
				continue // e.g. offsets that do not fit a small grid
			}
			res, err := Evaluate(ga.arch, tp)
			if err != nil {
				t.Fatalf("%s/%s: %v", ga.name, gt.name, err)
			}
			got[ga.name+"|"+gt.name] = newGoldenEntry(t, res)
		}
	}
	return got
}

// TestEvaluateGolden pins Evaluate's full output over the matrix.
func TestEvaluateGolden(t *testing.T) {
	got := goldenResults(t)
	collided := 0
	for _, e := range got {
		if e.Collisions > 0 {
			collided++
		}
	}
	if collided == 0 {
		t.Error("no matrix case routes with collisions; the suite would not pin collision counting")
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPhysPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries (%d with collisions)", goldenPhysPath, len(got), collided)
		return
	}

	data, err := os.ReadFile(goldenPhysPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, run produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: in golden file but not produced", key)
			continue
		}
		if g != w {
			t.Errorf("%s: cost model drifted from golden:\ngot  %+v\nwant %+v", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in golden file (run with -update-golden)", key)
		}
	}
}
