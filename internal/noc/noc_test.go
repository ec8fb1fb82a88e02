package noc

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// findRow returns the Table I row for a topology name.
func findRow(t *testing.T, rows []TableIRow, name string) TableIRow {
	t.Helper()
	for _, r := range rows {
		if r.Topology == name {
			return r
		}
	}
	t.Fatalf("row %q missing", name)
	return TableIRow{}
}

// TestTableI8x8 pins the compliance table on the 8x8 grid of
// scenarios a/b against the paper's Table I (R = C = 8).
func TestTableI8x8(t *testing.T) {
	rows, err := TableI(tech.Scenario(tech.ScenarioA))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("table I has %d rows, want 8", len(rows))
	}

	ring := findRow(t, rows, "ring")
	if ring.RouterRadix != "2" || ring.Diameter != "32" || ring.SL != "Y" || ring.MinUsed != "N" {
		t.Errorf("ring row = %+v", ring)
	}
	mesh := findRow(t, rows, "2d-mesh")
	if mesh.RouterRadix != "4" || mesh.Diameter != "14" || mesh.SL != "Y" || mesh.AL != "Y" ||
		mesh.ULD != "Y" || mesh.MinPresent != "Y" || mesh.MinUsed != "Y" {
		t.Errorf("mesh row = %+v", mesh)
	}
	torus := findRow(t, rows, "2d-torus")
	if torus.RouterRadix != "4" || torus.Diameter != "8" || torus.SL != "N" ||
		torus.MinPresent != "Y" || torus.MinUsed != "N" {
		t.Errorf("torus row = %+v", torus)
	}
	ft := findRow(t, rows, "folded-2d-torus")
	if ft.RouterRadix != "4" || ft.Diameter != "8" || ft.SL != "~" || ft.MinPresent != "N" {
		t.Errorf("folded torus row = %+v", ft)
	}
	hc := findRow(t, rows, "hypercube")
	if hc.RouterRadix != "6" || hc.Diameter != "6" || hc.SL != "N" || hc.AL != "Y" ||
		hc.MinPresent != "Y" || hc.MinUsed != "N" {
		t.Errorf("hypercube row = %+v", hc)
	}
	slim := findRow(t, rows, "slimnoc")
	if slim.Applicable || slim.NumConfigs != "0" {
		t.Errorf("slimnoc must be inapplicable on 8x8 (64 != 2p^2): %+v", slim)
	}
	fb := findRow(t, rows, "flattened-butterfly")
	if fb.RouterRadix != "14" || fb.Diameter != "2" || fb.SL != "N" || fb.AL != "Y" ||
		fb.MinPresent != "Y" || fb.MinUsed != "Y" {
		t.Errorf("FB row = %+v", fb)
	}
	shg := findRow(t, rows, "sparse-hamming")
	if shg.RouterRadix != "[4, 14]" || shg.Diameter != "[2, 14]" || shg.NumConfigs != "2^12" {
		t.Errorf("SHG row = %+v", shg)
	}
	if shg.SL != "(Y)" || shg.AL != "Y" || shg.MinPresent != "Y" || shg.MinUsed != "(Y)" {
		t.Errorf("SHG marks = %+v", shg)
	}

	// Render without error.
	md := FormatTableI(rows)
	if !strings.Contains(md, "sparse-hamming") || !strings.Contains(md, "2^12") {
		t.Error("markdown rendering incomplete")
	}
}

// TestTableI8x16 checks the scenario-c grid, where SlimNoC applies.
func TestTableI8x16(t *testing.T) {
	rows, err := TableI(tech.Scenario(tech.ScenarioC))
	if err != nil {
		t.Fatal(err)
	}
	slim := findRow(t, rows, "slimnoc")
	if !slim.Applicable {
		t.Fatal("slimnoc must apply on 8x16 (128 = 2*8^2)")
	}
	if slim.RouterRadix != "15" || slim.Diameter != "2" {
		t.Errorf("slimnoc row = %+v", slim)
	}
	if slim.AL != "N" {
		t.Errorf("slimnoc aligned links = %s, want N", slim.AL)
	}
	if slim.ULD == "Y" {
		t.Errorf("slimnoc ULD = %s, want non-uniform (paper: N)", slim.ULD)
	}
	// Hypercube does not apply on 8x16? 8 and 16 are powers of two, so
	// it does apply here.
	hc := findRow(t, rows, "hypercube")
	if !hc.Applicable || hc.RouterRadix != "7" {
		t.Errorf("hypercube on 8x16 = %+v", hc)
	}
	shg := findRow(t, rows, "sparse-hamming")
	if shg.NumConfigs != "2^20" {
		t.Errorf("SHG configs = %s, want 2^20", shg.NumConfigs)
	}
}

// TestTableIIIShape checks the MemPool validation reproduces the
// paper's error profile: good area/power accuracy for a high-level
// model, a roughly 2x latency overestimate, and a throughput
// underestimate.
func TestTableIIIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("MemPool validation simulates a 256-tile network")
	}
	rows, pred, err := TableIII(Quick)
	if err != nil {
		t.Fatal(err)
	}
	byMetric := map[string]TableIIIRow{}
	for _, r := range rows {
		byMetric[r.Metric] = r
	}
	area := byMetric["area [mm2]"]
	if area.ErrorPct > 40 {
		t.Errorf("area error %.0f%%, want < 40%% (paper: 15%%)", area.ErrorPct)
	}
	if area.Predicted < area.Correct {
		t.Errorf("area should be overestimated (paper: 24.26 > 21.16), got %.2f", area.Predicted)
	}
	power := byMetric["power [W]"]
	if power.ErrorPct > 30 {
		t.Errorf("power error %.0f%%, want < 30%% (paper: 7%%)", power.ErrorPct)
	}
	lat := byMetric["latency [cycles]"]
	if lat.Predicted <= lat.Correct {
		t.Error("latency must be overestimated (the model charges a minimum cycle per router/link)")
	}
	if lat.ErrorPct < 50 || lat.ErrorPct > 200 {
		t.Errorf("latency error %.0f%%, want ~100%% as in the paper", lat.ErrorPct)
	}
	// The paper's correction: deducting 1 injection cycle and 1 cycle
	// per traversed router brings the estimate close to the truth.
	corrected := lat.Predicted - 4
	if corrected < 4 || corrected > 9 {
		t.Errorf("corrected latency %.1f, want near the published 5-6 cycles", corrected)
	}
	tp := byMetric["throughput [%]"]
	if tp.Predicted >= tp.Correct {
		t.Errorf("throughput should be underestimated (paper: 25%% < 38%%), got %.1f", tp.Predicted)
	}
	if pred.Diameter != 2 {
		t.Errorf("MemPool stand-in diameter = %d, want 2 (three routers per path)", pred.Diameter)
	}
}

// figure6Row is one topology's Figure 6 numbers as the golden CSV
// records them.
type figure6Row struct {
	AreaOverheadPct, NoCPowerW, ZeroLoadLatency, SaturationPct float64
}

// goldenFigure6 reads sweep id's rows from the golden CSV of
// figure6-quick.json, keyed by topology kind. TestSpecGolden at the
// repository root proves the file is what the spec produces today.
func goldenFigure6(t *testing.T, id tech.ScenarioID) map[string]figure6Row {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", "golden", "figure6-quick.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, name := range recs[0] {
		col[name] = i
	}
	num := func(rec []string, name string) float64 {
		v, err := strconv.ParseFloat(rec[col[name]], 64)
		if err != nil {
			t.Fatalf("column %s: %v", name, err)
		}
		return v
	}
	rows := map[string]figure6Row{}
	for _, rec := range recs[1:] {
		if rec[col["spec_sweep"]] != string(id) {
			continue
		}
		rows[rec[col["topology"]]] = figure6Row{
			AreaOverheadPct: num(rec, "area_overhead_pct"),
			NoCPowerW:       num(rec, "noc_power_w"),
			ZeroLoadLatency: num(rec, "zero_load_latency"),
			SaturationPct:   num(rec, "saturation_pct"),
		}
	}
	return rows
}

// TestFigure6ScenarioA reproduces the headline claims of Figure 6a on
// the golden rows: among topologies within the 40% area budget, the
// customized sparse Hamming graph has the highest saturation
// throughput, and only expensive topologies (flattened butterfly)
// beat its latency.
func TestFigure6ScenarioA(t *testing.T) {
	rows := goldenFigure6(t, tech.ScenarioA)
	if _, ok := rows["slimnoc"]; ok {
		t.Error("slimnoc has no 8x8 instance, yet figure 6a has a row for it")
	}
	shg, okS := rows["sparse-hamming"]
	fb, okF := rows["flattened-butterfly"]
	ring, okR := rows["ring"]
	mesh, okM := rows["mesh"]
	if !okS || !okF || !okR || !okM {
		t.Fatalf("missing topologies in figure 6a: %v", rows)
	}
	within40 := map[string]figure6Row{}
	for name, r := range rows {
		if r.AreaOverheadPct <= 40 {
			within40[name] = r
		}
	}

	// Cost claims.
	if shg.AreaOverheadPct > 40 {
		t.Errorf("customized SHG overhead %.1f%% exceeds the 40%% budget", shg.AreaOverheadPct)
	}
	if fb.AreaOverheadPct <= 40 {
		t.Errorf("FB overhead %.1f%% should exceed 40%%", fb.AreaOverheadPct)
	}
	if ring.NoCPowerW >= mesh.NoCPowerW {
		t.Error("ring should be the cheapest in power")
	}

	// Performance claims: highest throughput within the budget.
	for name, p := range within40 {
		if name == "sparse-hamming" {
			continue
		}
		if p.SaturationPct > shg.SaturationPct {
			t.Errorf("%s saturates at %.1f%% > SHG %.1f%% within the 40%% budget",
				name, p.SaturationPct, shg.SaturationPct)
		}
	}
	// Latency: SHG beats the mesh and ring clearly.
	if shg.ZeroLoadLatency >= mesh.ZeroLoadLatency {
		t.Errorf("SHG latency %.1f not below mesh %.1f", shg.ZeroLoadLatency, mesh.ZeroLoadLatency)
	}
	if ring.ZeroLoadLatency <= mesh.ZeroLoadLatency {
		t.Error("ring must have the worst latency")
	}
	// FB (the expensive topology) may beat SHG's latency; nothing else
	// within the budget should by a wide margin.
	for name, p := range within40 {
		if p.ZeroLoadLatency < shg.ZeroLoadLatency*0.8 {
			t.Errorf("%s latency %.1f far below SHG %.1f within budget",
				name, p.ZeroLoadLatency, shg.ZeroLoadLatency)
		}
	}
}

func TestCustomizeScenarioA(t *testing.T) {
	if testing.Short() {
		t.Skip("customization with final simulation is slow")
	}
	res, err := Customize(tech.Scenario(tech.ScenarioA), 40, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Params.SR) == 0 && len(res.Params.SC) == 0 {
		t.Error("customization did not add any links")
	}
	if res.Final.AreaOverheadPct > 40 {
		t.Errorf("customized overhead %.1f%% exceeds budget", res.Final.AreaOverheadPct)
	}
	// The strategy must improve on the mesh's average hops.
	mesh, _ := topo.NewMesh(8, 8)
	if res.Final.AvgHops >= mesh.AverageHops() {
		t.Errorf("customized avg hops %.2f not below mesh %.2f", res.Final.AvgHops, mesh.AverageHops())
	}
	// Some step must have been accepted and recorded.
	accepted := 0
	for _, s := range res.Steps {
		if s.Accepted {
			accepted++
		}
	}
	if accepted == 0 {
		t.Error("no accepted steps recorded")
	}
	if !strings.Contains(FormatCustomization(res), "Final:") {
		t.Error("customization rendering incomplete")
	}
}

func TestPredictRejectsVCShortage(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	arch.Proto.NumVCs = 1
	// Ring routing needs 2 VC classes.
	rg, _ := topo.NewRing(8, 8)
	if _, err := Predict(arch, rg, Quick); err == nil {
		t.Error("1 VC with 2 classes should be rejected")
	}
}

func TestPaperSHGParamsValid(t *testing.T) {
	for _, id := range tech.AllScenarios() {
		arch := tech.Scenario(id)
		p := PaperSHGParams(id)
		if _, err := topo.NewSparseHamming(arch.Rows, arch.Cols, p); err != nil {
			t.Errorf("scenario %s params %v invalid: %v", id, p, err)
		}
	}
}

func TestAnalyticFieldsPopulated(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	if testing.Short() {
		// A 4x4 grid exercises the same analytic/simulated agreement
		// checks with an order of magnitude fewer simulated router
		// cycles.
		arch.Rows, arch.Cols = 4, 4
	}
	m, _ := topo.NewMesh(arch.Rows, arch.Cols)
	pred, err := Predict(arch, m, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if pred.AnalyticZeroLoad <= 0 || pred.AnalyticBoundPct <= 0 {
		t.Fatalf("analytic fields missing: %+v", pred)
	}
	// The channel-load bound is an upper bound on simulated saturation.
	if pred.SaturationPct > pred.AnalyticBoundPct*1.05 {
		t.Errorf("simulated %.1f%% exceeds analytic bound %.1f%%",
			pred.SaturationPct, pred.AnalyticBoundPct)
	}
	// The closed form tracks the simulated zero-load latency.
	rel := pred.ZeroLoadLatency/pred.AnalyticZeroLoad - 1
	if rel < -0.2 || rel > 0.5 {
		t.Errorf("closed form %.1f vs simulated %.1f zero-load latency",
			pred.AnalyticZeroLoad, pred.ZeroLoadLatency)
	}
}

func TestCustomizeSmallGrid(t *testing.T) {
	// A 4x4 grid keeps the final simulation cheap while exercising the
	// full strategy loop including step bookkeeping.
	arch := tech.Scenario(tech.ScenarioA)
	arch.Rows, arch.Cols = 4, 4
	res, err := Customize(arch, 40, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final == nil || res.Final.AreaOverheadPct > 40 {
		t.Fatalf("final = %+v", res.Final)
	}
	// Accepted steps must be strictly improving in avg hops and
	// non-decreasing in area.
	prevHops, prevArea := 1e18, 0.0
	for _, s := range res.Steps {
		if !s.Accepted {
			continue
		}
		if s.AvgHops >= prevHops {
			t.Errorf("accepted step %s did not reduce hops", s.Candidate)
		}
		if s.AreaOverheadPct < prevArea-1e-9 {
			t.Errorf("accepted step %s reduced area overhead", s.Candidate)
		}
		prevHops, prevArea = s.AvgHops, s.AreaOverheadPct
	}
	// The accepted params match the final result.
	if len(res.Steps) == 0 {
		t.Fatal("no steps recorded")
	}
}

func TestCustomizeImpossibleBudget(t *testing.T) {
	arch := tech.Scenario(tech.ScenarioA)
	if _, err := Customize(arch, 1, Quick); err == nil {
		t.Error("1% budget (below the mesh) should fail")
	}
}
