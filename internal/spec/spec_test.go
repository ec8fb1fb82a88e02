package spec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparsehamming/internal/exp"
)

// testSpec returns a small multi-axis spec exercising every
// cross-product dimension.
func testSpec() *Spec {
	return &Spec{
		Name: "test",
		Sweeps: []Sweep{
			{
				Label: "loads",
				Mode:  "load",
				Arch:  ArchSpec{Scenario: "a", Rows: 4, Cols: 4},
				Topologies: []TopologySpec{
					{Kind: "mesh"},
					{Kind: "sparse-hamming", SR: []int{2}, SC: []int{2}},
				},
				Routings:  []string{"auto", "hop-minimal"},
				Patterns:  []string{"uniform", "transpose"},
				Loads:     []float64{0.1, 0.3},
				Qualities: []string{"quick"},
				Seeds:     []int64{1, 2},
			},
			{
				Label:      "predict",
				Arch:       ArchSpec{Scenario: "a", Rows: 4, Cols: 4},
				Topologies: []TopologySpec{{Kind: "torus", Routing: "torus-dor"}},
			},
		},
	}
}

func TestValidateAndExpandDeterministic(t *testing.T) {
	s := testSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	a, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion is not deterministic")
	}
	// Sweep 1: 2 topologies x 2 routings x 2 patterns x 2 loads x 1
	// quality x 2 seeds; sweep 2: a single pinned-routing job.
	want := 2*2*2*2*1*2 + 1
	if len(a) != want {
		t.Fatalf("%d jobs, want %d", len(a), want)
	}
	// Nesting order: topology outermost, seeds innermost.
	if a[0].Topo != "mesh" || a[0].Seed != 1 || a[1].Seed != 2 {
		t.Errorf("unexpected leading jobs: %+v, %+v", a[0], a[1])
	}
	if a[0].Load != a[1].Load {
		t.Error("seeds must be the innermost axis")
	}
	if a[len(a)-1].Topo != "torus" || a[len(a)-1].Routing != "torus-dor" {
		t.Errorf("pinned-routing job = %+v", a[len(a)-1])
	}
	// Default spellings canonicalize onto the empty string.
	if a[0].Routing != "" || a[0].Pattern != "" {
		t.Errorf("auto/uniform must canonicalize to \"\": %+v", a[0])
	}
	// Grouped expansion aligns with labels.
	groups, err := s.ExpandSweeps()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != want-1 || len(groups[1]) != 1 {
		t.Fatalf("group sizes %d/%d", len(groups[0]), len(groups[1]))
	}
	if labels := s.Labels(); labels[0] != "loads" || labels[1] != "predict" {
		t.Errorf("labels = %v", labels)
	}
}

// TestSweepAxesYieldToTopologyPin pins the rule an ablation of a
// preset relies on: a sweep-level routings or patterns entry reaches
// every topology without a routing of its own, and a topology's own
// routing wins over the sweep's routings (the pattern still applies).
func TestSweepAxesYieldToTopologyPin(t *testing.T) {
	s := &Spec{
		Name: "ablation",
		Sweeps: []Sweep{{
			Arch: ArchSpec{Scenario: "a", Rows: 4, Cols: 4},
			Topologies: []TopologySpec{
				{Kind: "mesh"},
				{Kind: "hypercube", Routing: "e-cube"},
				{Kind: "torus"},
			},
			Routings: []string{"hop-minimal"},
			Patterns: []string{"transpose"},
		}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"mesh": "hop-minimal", "hypercube": "e-cube", "torus": "hop-minimal"}
	if len(jobs) != len(want) {
		t.Fatalf("%d jobs, want %d", len(jobs), len(want))
	}
	for _, j := range jobs {
		if j.Routing != want[j.Topo] {
			t.Errorf("%s routing %q, want %q", j.Topo, j.Routing, want[j.Topo])
		}
		if j.Pattern != "transpose" {
			t.Errorf("%s pattern %q, want the sweep's transpose", j.Topo, j.Pattern)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name: "bad",
			Sweeps: []Sweep{{
				Arch:       ArchSpec{Scenario: "a"},
				Topologies: []TopologySpec{{Kind: "mesh"}},
			}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no sweeps", func(s *Spec) { s.Sweeps = nil }},
		{"no topologies", func(s *Spec) { s.Sweeps[0].Topologies = nil }},
		{"unknown scenario", func(s *Spec) { s.Sweeps[0].Arch.Scenario = "z" }},
		{"unknown topology", func(s *Spec) { s.Sweeps[0].Topologies[0].Kind = "moebius" }},
		{"inapplicable topology", func(s *Spec) {
			s.Sweeps[0].Arch.Rows, s.Sweeps[0].Arch.Cols = 6, 6
			s.Sweeps[0].Topologies[0].Kind = "hypercube"
		}},
		{"offsets on fixed family", func(s *Spec) { s.Sweeps[0].Topologies[0].SR = []int{2} }},
		{"bad offsets", func(s *Spec) {
			s.Sweeps[0].Topologies[0] = TopologySpec{Kind: "sparse-hamming", SR: []int{99}}
		}},
		{"unknown pinned routing", func(s *Spec) { s.Sweeps[0].Topologies[0].Routing = "left-hand" }},
		{"unknown routing", func(s *Spec) { s.Sweeps[0].Routings = []string{"left-hand"} }},
		{"unknown pattern", func(s *Spec) { s.Sweeps[0].Patterns = []string{"tornado"} }},
		{"unknown quality", func(s *Spec) { s.Sweeps[0].Qualities = []string{"heroic"} }},
		{"unknown mode", func(s *Spec) { s.Sweeps[0].Mode = "paint" }},
		{"loads in predict mode", func(s *Spec) { s.Sweeps[0].Loads = []float64{0.1} }},
		{"load mode without loads", func(s *Spec) { s.Sweeps[0].Mode = "load" }},
		{"load out of range", func(s *Spec) {
			s.Sweeps[0].Mode = "load"
			s.Sweeps[0].Loads = []float64{1.5}
		}},
		{"cost mode with patterns", func(s *Spec) {
			s.Sweeps[0].Mode = "cost"
			s.Sweeps[0].Patterns = []string{"transpose"}
		}},
		{"cost mode with pinned routing", func(s *Spec) {
			s.Sweeps[0].Mode = "cost"
			s.Sweeps[0].Topologies[0].Routing = "monotone-dor"
		}},
		{"invalid arch override", func(s *Spec) { s.Sweeps[0].Arch.TileAspect = -1 }},
		{"traces in predict mode", func(s *Spec) {
			s.Sweeps[0].Traces = []string{"../../examples/traces/bursty-4x4.trace"}
		}},
		{"trace pattern in predict mode", func(s *Spec) {
			s.Sweeps[0].Arch.Rows, s.Sweeps[0].Arch.Cols = 4, 4
			s.Sweeps[0].Patterns = []string{"trace:../../examples/traces/bursty-4x4.trace"}
		}},
		{"empty trace path", func(s *Spec) {
			s.Sweeps[0].Mode = "load"
			s.Sweeps[0].Loads = []float64{0.5}
			s.Sweeps[0].Traces = []string{""}
		}},
		{"missing trace file", func(s *Spec) {
			s.Sweeps[0].Mode = "load"
			s.Sweeps[0].Loads = []float64{0.5}
			s.Sweeps[0].Traces = []string{"no-such-file.trace"}
		}},
		{"more than MaxJobs jobs", func(s *Spec) {
			s.Sweeps[0].Mode = "load"
			s.Sweeps[0].Loads = []float64{0.1, 0.2, 0.3, 0.4}
			s.Sweeps[0].Seeds = make([]int64, MaxJobs/4+1)
		}},
		{"trace grid mismatch", func(s *Spec) {
			// The checked-in traces are 4x4; the base sweep's scenario-a
			// grid is 8x8.
			s.Sweeps[0].Mode = "load"
			s.Sweeps[0].Loads = []float64{0.5}
			s.Sweeps[0].Traces = []string{"../../examples/traces/bursty-4x4.trace"}
		}},
	}
	for _, c := range cases {
		s := base()
		c.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate() passed, want error", c.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec must be valid: %v", err)
	}
}

func TestArchForJobOverrides(t *testing.T) {
	arch, err := ArchForJob(exp.Job{Scenario: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if arch.Rows != 8 || arch.Cols != 8 || arch.EndpointGE != 35e6 {
		t.Fatalf("preset a = %+v", arch)
	}
	arch, err = ArchForJob(exp.Job{
		Scenario: "a", Rows: 8, Cols: 12,
		Arch: &exp.ArchOverride{
			EndpointGE: 50e6, CoresPerTile: 2, FreqHz: 1e9,
			LinkBWBits: 256, NumVCs: 4, BufDepthFlits: 8, TileAspect: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if arch.Rows != 8 || arch.Cols != 12 || arch.NumTiles() != 96 {
		t.Errorf("grid override: %dx%d", arch.Rows, arch.Cols)
	}
	if arch.EndpointGE != 50e6 || arch.CoresPerTile != 2 || arch.FreqHz != 1e9 ||
		arch.LinkBWBits != 256 || arch.Proto.NumVCs != 4 || arch.Proto.BufDepthFlits != 8 ||
		arch.TileAspect != 2 {
		t.Errorf("override not applied: %+v proto %+v", arch, arch.Proto)
	}
	// Unknown scenario and invalid overrides are rejected.
	if _, err := ArchForJob(exp.Job{Scenario: "z"}); err == nil {
		t.Error("unknown scenario must error")
	}
	if _, err := ArchForJob(exp.Job{Scenario: "a", Rows: -1}); err == nil {
		t.Error("invalid grid must error")
	}
}

// TestParseRejectsUnknownFields pins the strict decoding: typos in
// spec files must fail instead of silently shrinking a campaign.
func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","sweeps":[{"arch":{"scenario":"a"},"topolojies":[]}]}`)); err == nil {
		t.Error("unknown field must error")
	}
	if _, err := Parse([]byte(`{"name":"x"`)); err == nil {
		t.Error("truncated JSON must error")
	}
}

// TestExampleSpecsValid walks the checked-in spec files: every one
// must parse, validate, and expand — the same invariant CI enforces
// via shrun -validate.
func TestExampleSpecsValid(t *testing.T) {
	// Trace paths in spec files resolve against the working directory
	// (shrun and CI run from the repo root), so validate from there.
	t.Chdir(filepath.Join("..", ".."))
	dir := filepath.Join("examples", "specs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		found++
		path := filepath.Join(dir, e.Name())
		s, err := ParseFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		jobs, err := s.Expand()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if len(jobs) == 0 {
			t.Errorf("%s: expands to no jobs", path)
		}
	}
	if found < 4 {
		t.Fatalf("only %d spec files under %s, expected the checked-in presets", found, dir)
	}
}

// TestTracesAxis pins the traces sweep axis: entries validate through
// the pattern registry's "trace" scheme, merge after Patterns on the
// pattern axis as "trace:<path>" names, and the uniform default
// applies only when both lists are empty.
func TestTracesAxis(t *testing.T) {
	const trPath = "../../examples/traces/bursty-4x4.trace"
	s := &Spec{
		Name: "traces",
		Sweeps: []Sweep{{
			Mode:       "load",
			Arch:       ArchSpec{Scenario: "a", Rows: 4, Cols: 4},
			Topologies: []TopologySpec{{Kind: "mesh"}},
			Patterns:   []string{"transpose"},
			Traces:     []string{trPath},
			Loads:      []float64{0.5, 1.0},
			Seeds:      []int64{1},
		}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 1 topology x 1 routing x (1 pattern + 1 trace) x 2 loads x 1
	// quality x 1 seed.
	if len(jobs) != 4 {
		t.Fatalf("%d jobs, want 4", len(jobs))
	}
	if jobs[0].Pattern != "transpose" || jobs[2].Pattern != "trace:"+trPath {
		t.Errorf("pattern axis order: %q then %q", jobs[0].Pattern, jobs[2].Pattern)
	}
	if jobs[2].Load != 0.5 || jobs[3].Load != 1.0 {
		t.Errorf("trace loads = %g, %g", jobs[2].Load, jobs[3].Load)
	}

	// Traces alone leave no uniform default behind.
	s.Sweeps[0].Patterns = nil
	jobs, err = s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].Pattern != "trace:"+trPath {
		t.Fatalf("traces-only expansion = %+v", jobs)
	}
}

// TestParseReader pins the streaming parser: equivalent to Parse,
// strict about unknown fields and trailing data.
func TestParseReader(t *testing.T) {
	const good = `{"name": "x", "sweeps": [{"arch": {"scenario": "a"}, "topologies": [{"kind": "mesh"}]}]}`
	s, err := ParseReader(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "x" || len(s.Sweeps) != 1 {
		t.Fatalf("parsed %+v", s)
	}
	if _, err := ParseReader(strings.NewReader(good + ` {"trailing": true}`)); err == nil {
		t.Error("trailing data not rejected")
	}
	if _, err := ParseReader(strings.NewReader(`{"nmae": "typo"}`)); err == nil {
		t.Error("unknown field not rejected")
	}
}

// TestHash pins the campaign hash contract: invariant under
// formatting and explicit default spellings, sensitive to anything
// that changes a job's cache identity, and indifferent to the name.
func TestHash(t *testing.T) {
	base := testSpec()
	h1, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	renamed := testSpec()
	renamed.Name = "different-label"
	renamed.Description = "labels are not work"
	if h, _ := renamed.Hash(); h != h1 {
		t.Errorf("renaming the spec changed the hash: %s vs %s", h, h1)
	}

	spelled := testSpec()
	spelled.Sweeps[1].Mode = "predict" // the implicit default, spelled out
	spelled.Sweeps[1].Routings = nil
	if h, _ := spelled.Hash(); h != h1 {
		t.Errorf("spelling a default explicitly changed the hash: %s vs %s", h, h1)
	}

	reseeded := testSpec()
	reseeded.Sweeps[0].Seeds = []int64{1, 3}
	if h, _ := reseeded.Hash(); h == h1 {
		t.Error("changing a seed did not change the hash")
	}

	// The hash must be stable across processes: it feeds campaign ids
	// and the service's dedup story, so pin the digest of a fixed
	// tiny spec.
	tiny := &Spec{Name: "pin", Sweeps: []Sweep{{
		Mode: "cost", Arch: ArchSpec{Scenario: "a"},
		Topologies: []TopologySpec{{Kind: "mesh"}},
	}}}
	if h, _ := tiny.Hash(); len(h) != 32 {
		t.Errorf("hash %q is not 32 hex chars", h)
	}
}
