package noc

import (
	"testing"

	"sparsehamming/internal/tech"
)

// relDev returns |a-b| / |b| in percent.
func relDev(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b < 0 {
		b = -b
	}
	if b == 0 {
		return 0
	}
	return 100 * d / b
}

// TestAdaptiveFigure6aParity is the adaptive tier's acceptance gate:
// sweep a of figure6-adaptive.json must keep the sparse Hamming
// headline numbers (area overhead, zero-load latency, saturation)
// within 2% of the fixed-budget sweep a of figure6-quick.json while
// simulating at most 70% of its cycles — the wall-clock claim is
// pinned by the benchmark trajectory (BENCH_sim.json), the metric
// parity by this test. The golden CSVs pin both sweeps' rows, but not
// the simulated work behind them, so this test simulates.
func TestAdaptiveFigure6aParity(t *testing.T) {
	if testing.Short() {
		t.Skip("two Figure 6a panels in -short mode")
	}
	fixedJobs, fixedResults, fs := runFigure6Sweep(t, "quick", tech.ScenarioA)
	adaptJobs, adaptResults, as := runFigure6Sweep(t, "adaptive", tech.ScenarioA)
	if len(fixedJobs) != len(adaptJobs) {
		t.Fatalf("%d fixed jobs vs %d adaptive", len(fixedJobs), len(adaptJobs))
	}

	var checked int
	for i, fj := range fixedJobs {
		if fj.Topo != adaptJobs[i].Topo {
			t.Fatalf("row %d: topology %q vs %q", i, fj.Topo, adaptJobs[i].Topo)
		}
		f, a := PredictionFromResult(fixedResults[i]), PredictionFromResult(adaptResults[i])
		if a.Probes == 0 {
			t.Errorf("%s: adaptive prediction reports no probes", fj.Topo)
		}
		if fj.Topo != "sparse-hamming" {
			continue
		}
		checked++
		if d := relDev(a.AreaOverheadPct, f.AreaOverheadPct); d > 2 {
			t.Errorf("shg area overhead deviates %.2f%% (%v vs %v)", d, a.AreaOverheadPct, f.AreaOverheadPct)
		}
		if d := relDev(a.ZeroLoadLatency, f.ZeroLoadLatency); d > 2 {
			t.Errorf("shg zero-load latency deviates %.2f%% (%v vs %v)", d, a.ZeroLoadLatency, f.ZeroLoadLatency)
		}
		if d := relDev(a.SaturationPct, f.SaturationPct); d > 2 {
			t.Errorf("shg saturation deviates %.2f%% (%v vs %v)", d, a.SaturationPct, f.SaturationPct)
		}
		if a.CyclesSaved == 0 {
			t.Error("shg adaptive prediction saved no cycles")
		}
	}
	if checked != 1 {
		t.Fatalf("checked %d sparse-hamming rows, want 1", checked)
	}

	t.Logf("fixed: %s", fs)
	t.Logf("adaptive: %s", as)
	// The wall-clock >=2x claim lives in the benchmark trajectory;
	// here assert the deterministic work reduction behind it. Cycles
	// understate the win — the cycles the verdicts cut are the
	// flit-heavy saturated ones — so bound both work figures.
	if as.SimCycles*10 > fs.SimCycles*7 {
		t.Errorf("adaptive panel simulated %d cycles, want <= 70%% of fixed %d", as.SimCycles, fs.SimCycles)
	}
	if as.SimFlitHops*10 > fs.SimFlitHops*8 {
		t.Errorf("adaptive panel moved %d flits, want <= 80%% of fixed %d", as.SimFlitHops, fs.SimFlitHops)
	}
	if as.CyclesSaved == 0 {
		t.Error("adaptive panel reports no cycles saved")
	}
}

// TestQualityNamesRoundTrip pins the quality name mapping both ways,
// including the adaptive tier.
func TestQualityNamesRoundTrip(t *testing.T) {
	for _, q := range []Quality{Quick, Full, Adaptive} {
		got, err := QualityByName(QualityName(q))
		if err != nil || got != q {
			t.Errorf("round trip of %v: %v, %v", q, got, err)
		}
	}
	if _, err := QualityByName("bogus"); err == nil {
		t.Error("bogus quality accepted")
	}
	if q, err := QualityByName(""); err != nil || q != Quick {
		t.Errorf("empty quality: %v, %v (want Quick)", q, err)
	}
}
