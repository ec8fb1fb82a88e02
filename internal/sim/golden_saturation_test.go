package sim

// Golden saturation suite: the saturation search's whole result —
// rate, zero-load latency, work accounting, probe count, cycles
// saved, resolution, lower-bound flag, and every probe's Stats — is
// pinned field by field against testdata/golden_saturation.json for a
// mesh, a flattened butterfly, a sparse Hamming graph, a
// configuration whose every probe saturates (the lower-bound report),
// and one whose loaded probes deadlock.
// Each case runs on the fixed tier and on the adaptive tier.
//
// Regenerate after an intentional search or engine change with
//
//	go test ./internal/sim/ -run TestGoldenSaturation -update-golden

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"sparsehamming/internal/route"
	"sparsehamming/internal/topo"
)

const goldenSaturationPath = "testdata/golden_saturation.json"

// goldenSatConfig builds one pinned search configuration on a 4x4
// grid with the differential harness's router parameters and short
// windows.
func goldenSatConfig(t *testing.T, fam diffFamily) Config {
	t.Helper()
	tp, err := topo.ByName(fam.kind, fam.rows, fam.cols, fam.sr, fam.sc)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := route.ForName(tp, "")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topo: tp, Routing: rt,
		NumVCs: 4, BufDepth: 8,
		RouterDelay: 2, PacketLen: 4,
		Seed:   21,
		Warmup: 400, Measure: 1500, Drain: 6000,
	}
}

// lowerBoundConfig builds a search that bottoms out: its links are
// far longer than a probe's measurement window plus clamped drain, so
// no measured packet arrives in time, every probe saturates, and the
// search reports the bisection resolution as a lower bound.
func lowerBoundConfig(t *testing.T) Config {
	t.Helper()
	cfg := goldenSatConfig(t, diffFamilies[1])
	cfg.LinkLatency = make([]int, cfg.Topo.NumLinks())
	for i := range cfg.LinkLatency {
		cfg.LinkLatency[i] = 400
	}
	cfg.Warmup, cfg.Measure = 50, 100
	return cfg
}

// TestGoldenSaturation runs every pinned search on both tiers and
// compares each SaturationResult against the golden file.
func TestGoldenSaturation(t *testing.T) {
	cases := map[string]Config{
		"mesh":                goldenSatConfig(t, diffFamilies[1]),
		"flattened-butterfly": goldenSatConfig(t, diffFamilies[6]),
		"sparse-hamming":      goldenSatConfig(t, diffFamilies[7]),
		"lower-bound":         lowerBoundConfig(t),
		// Its high-load probes deadlock and end on the watchdog before
		// their injection schedule does; a fixed-tier search must still
		// report no cycles saved.
		"deadlock": deadlockConfig(t),
	}

	got := map[string]SaturationResult{}
	for name, cfg := range cases {
		fixed, err := SaturationThroughput(cfg)
		if err != nil {
			t.Fatalf("%s/fixed: %v", name, err)
		}
		got[name+"/fixed"] = fixed

		cfg.Control = &Control{RelHalfWidth: 0.02}
		adaptive, err := SaturationThroughput(cfg)
		if err != nil {
			t.Fatalf("%s/adaptive: %v", name, err)
		}
		got[name+"/adaptive"] = adaptive
	}
	if lb := got["lower-bound/fixed"]; !lb.LowerBound {
		t.Errorf("lower-bound case did not bottom out: %+v", lb)
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSaturationPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenSaturationPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenSaturationPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to regenerate)", err)
	}
	var want map[string]SaturationResult
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
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: search drifted from golden:\ngot  %+v\nwant %+v", key, g, w)
		}
	}
}
