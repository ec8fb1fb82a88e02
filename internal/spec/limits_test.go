package spec_test

import (
	"strings"
	"testing"

	"sparsehamming/internal/noc"
	"sparsehamming/internal/spec"
)

// TestValidateMatchesEngineLimits pins that validation rejects the
// simulating sweeps whose every job the engine refuses — a clock so
// fast that a link outlasts the timing wheel, a buffer deeper than the
// engine's 16-bit counters — with the message the job itself fails
// with, while cost and surrogate sweeps of the same architecture
// (which never simulate) stay valid.
func TestValidateMatchesEngineLimits(t *testing.T) {
	cases := []struct {
		name string
		arch spec.ArchSpec
		topo string
	}{
		{"link plus pipeline beyond the wheel", spec.ArchSpec{Scenario: "a", Rows: 4, Cols: 4, FreqGHz: 1e6}, "flattened-butterfly"},
		{"buffer beyond the flit counters", spec.ArchSpec{Scenario: "a", Rows: 4, Cols: 4, BufDepthFlits: 40000}, "mesh"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sweep := func(mode string) *spec.Spec {
				sw := spec.Sweep{Mode: mode, Arch: tc.arch, Topologies: []spec.TopologySpec{{Kind: tc.topo}}}
				if mode == "load" {
					sw.Loads = []float64{0.1}
				}
				return &spec.Spec{Name: "limits", Sweeps: []spec.Sweep{sw}}
			}
			for _, mode := range []string{"predict", "load"} {
				s := sweep(mode)
				verr := s.Validate()
				if verr == nil {
					t.Fatalf("%s sweep validated", mode)
				}
				jobs, err := s.Expand()
				if err != nil {
					t.Fatal(err)
				}
				_, jerr := noc.EvalJob(jobs[0])
				if jerr == nil {
					t.Fatalf("%s job evaluated", mode)
				}
				if !strings.HasSuffix(verr.Error(), jerr.Error()) {
					t.Errorf("%s: validation says %q, the job fails with %q", mode, verr, jerr)
				}
			}
			for _, mode := range []string{"cost", "surrogate"} {
				if err := sweep(mode).Validate(); err != nil {
					t.Errorf("%s sweep rejected: %v", mode, err)
				}
			}
		})
	}

	// A generated topology axis is checked the same way.
	space := &spec.Spec{Name: "limits", Sweeps: []spec.Sweep{{
		Arch: spec.ArchSpec{Scenario: "a", Rows: 4, Cols: 4, FreqGHz: 1e6}, HammingSpace: true,
	}}}
	if err := space.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds the engine's limit") {
		t.Errorf("hamming_space predict sweep: got %v, want the engine's pipeline limit", err)
	}
}
