package noc

// Checks on the checked-in Figure 6 spec files, the only definition
// of the paper's Figure 6 campaign: the three quality tiers describe
// the same comparison, with the paper's sparse Hamming parameters and
// routing choices. The results they produce are pinned by the golden
// CSVs under testdata/golden/ (TestSpecGolden at the repository root,
// and CI steps for the two slowest files).

import (
	"path/filepath"
	"reflect"
	"testing"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/spec"
	"sparsehamming/internal/tech"
)

// figure6Tiers lists the quality tiers of the checked-in Figure 6
// specs, one file figure6-<tier>.json each.
var figure6Tiers = []string{"quick", "full", "adaptive"}

// figure6SpecFile parses and validates a checked-in Figure 6 spec.
func figure6SpecFile(t *testing.T, tier string) *spec.Spec {
	t.Helper()
	s, err := spec.ParseFile(filepath.Join("..", "..", "examples", "specs", "figure6-"+tier+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// runFigure6Sweep runs the sweep labelled by scenario id of a
// checked-in Figure 6 spec on a fresh all-cores runner, returning
// its jobs, their results, and the sweep's campaign statistics.
func runFigure6Sweep(t *testing.T, tier string, id tech.ScenarioID) ([]exp.Job, []*exp.Result, PanelStats) {
	t.Helper()
	s := figure6SpecFile(t, tier)
	groups, err := s.ExpandSweeps()
	if err != nil {
		t.Fatal(err)
	}
	for pi, label := range s.Labels() {
		if label != string(id) {
			continue
		}
		jobs := groups[pi]
		r := NewRunner(0, nil)
		pt := NewPanelTracker([]string{label})
		for _, j := range jobs {
			pt.Add(j, 0)
		}
		pt.Attach(r)
		results, _, err := r.Run(jobs)
		pt.Detach()
		if err != nil {
			t.Fatal(err)
		}
		for k, res := range results {
			pt.AddResult(jobs[k], res)
		}
		return jobs, results, pt.Stats[0]
	}
	t.Fatalf("figure6-%s has no sweep %q", tier, id)
	return nil, nil, PanelStats{}
}

// TestFigure6FilesAgree pins the three tiers to one comparison:
// the files differ only in their name and their sweeps' qualities.
func TestFigure6FilesAgree(t *testing.T) {
	base := figure6SpecFile(t, "quick")
	for _, tier := range figure6Tiers {
		s := figure6SpecFile(t, tier)
		if s.Name != "figure6-"+tier {
			t.Errorf("figure6-%s.json is named %q", tier, s.Name)
		}
		if len(s.Sweeps) != len(base.Sweeps) {
			t.Fatalf("figure6-%s.json has %d sweeps, quick has %d", tier, len(s.Sweeps), len(base.Sweeps))
		}
		for i := range s.Sweeps {
			if q := s.Sweeps[i].Qualities; !reflect.DeepEqual(q, []string{tier}) {
				t.Errorf("figure6-%s.json sweep %d qualities %v", tier, i, q)
			}
			s.Sweeps[i].Qualities = base.Sweeps[i].Qualities
		}
		s.Name = base.Name
		if !reflect.DeepEqual(s, base) {
			t.Errorf("figure6-%s.json differs from figure6-quick.json beyond name and qualities:\n%+v\n%+v", tier, s, base)
		}
	}
}

// TestFigure6FileJobs pins what the files expand to: one sweep per
// scenario, one seed-1 predict job per applicable topology on the
// scenario's own architecture, SlimNoC only where its grid exists (c
// and d), the hypercube on hop-minimal tables, every other family on
// its co-designed routing, and the paper's sparse Hamming parameters.
func TestFigure6FileJobs(t *testing.T) {
	for _, tier := range figure6Tiers {
		s := figure6SpecFile(t, tier)
		groups, err := s.ExpandSweeps()
		if err != nil {
			t.Fatal(err)
		}
		ids := tech.AllScenarios()
		if len(groups) != len(ids) {
			t.Fatalf("figure6-%s: %d sweeps, want %d", tier, len(groups), len(ids))
		}
		for pi, id := range ids {
			if label := s.Labels()[pi]; label != string(id) {
				t.Errorf("figure6-%s sweep %d labelled %q, want %q", tier, pi, label, id)
			}
			wantSlim := id == tech.ScenarioC || id == tech.ScenarioD
			var slim, shg bool
			for _, j := range groups[pi] {
				if j.Mode != exp.ModePredict || j.Seed != 1 || j.Quality != tier || j.Pattern != "" || j.Load != 0 {
					t.Errorf("figure6-%s %s: not a seed-1 %s predict job under uniform traffic: %+v", tier, id, tier, j)
				}
				if j.Scenario != string(id) || j.Rows != 0 || j.Cols != 0 || !j.Arch.IsZero() {
					t.Errorf("figure6-%s %s/%s: must run on scenario %s's own architecture", tier, id, j.Topo, id)
				}
				wantRouting := ""
				if j.Topo == "hypercube" {
					wantRouting = "hop-minimal"
				}
				if j.Routing != wantRouting {
					t.Errorf("figure6-%s %s/%s routing %q, want %q", tier, id, j.Topo, j.Routing, wantRouting)
				}
				switch j.Topo {
				case "slimnoc":
					slim = true
				case "sparse-hamming":
					shg = true
					p := PaperSHGParams(id)
					if !reflect.DeepEqual(j.SR, p.SR) || !reflect.DeepEqual(j.SC, p.SC) {
						t.Errorf("figure6-%s %s: sparse Hamming sr=%v sc=%v, want the paper's %s", tier, id, j.SR, j.SC, p)
					}
				}
			}
			if slim != wantSlim {
				t.Errorf("figure6-%s %s: slimnoc present = %v, want %v", tier, id, slim, wantSlim)
			}
			if !shg {
				t.Errorf("figure6-%s %s: no sparse Hamming job", tier, id)
			}
			want := 7
			if wantSlim {
				want = 8
			}
			if len(groups[pi]) != want {
				t.Errorf("figure6-%s %s: %d jobs, want %d", tier, id, len(groups[pi]), want)
			}
		}
	}
}

// TestPanelTracker pins the attribution helper on a fake runner.
func TestPanelTracker(t *testing.T) {
	jobs := []exp.Job{
		{Mode: exp.ModeCost, Scenario: "a", Topo: "mesh"},
		{Mode: exp.ModeCost, Scenario: "a", Topo: "torus"},
		{Mode: exp.ModeCost, Scenario: "b", Topo: "mesh"},
	}
	pt := NewPanelTracker([]string{"p0", "p1"})
	pt.Add(jobs[0], 0)
	pt.Add(jobs[1], 0)
	pt.Add(jobs[2], 1)
	r := &exp.Runner{Eval: func(j exp.Job) (*exp.Result, error) {
		return &exp.Result{Topology: j.Topo, SimCycles: 10, SimFlitHops: 20}, nil
	}}
	var outer int
	r.Progress = func(exp.ProgressEvent) { outer++ }
	pt.Attach(r)
	results, _, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		pt.AddResult(jobs[i], res)
	}
	pt.Detach()
	if outer != 3 {
		t.Errorf("chained progress hook saw %d events, want 3", outer)
	}
	if r.Progress == nil {
		t.Error("Detach must restore the previous hook")
	}
	if pt.Stats[0].Label != "p0" || pt.Stats[0].Jobs != 2 || pt.Stats[1].Jobs != 1 {
		t.Errorf("stats = %+v", pt.Stats)
	}
	if pt.Stats[0].SimCycles != 20 || pt.Stats[1].SimCycles != 10 {
		t.Errorf("sim work attribution = %+v", pt.Stats)
	}
}
