package noc

import (
	"fmt"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/spec"
	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// PaperSHGParams returns the sparse Hamming graph parameter sets the
// paper reports for each evaluation scenario (Figure 6 captions).
func PaperSHGParams(id tech.ScenarioID) topo.HammingParams {
	switch id {
	case tech.ScenarioA:
		return topo.HammingParams{SR: []int{4}, SC: []int{2, 5}}
	case tech.ScenarioB:
		return topo.HammingParams{SR: []int{2, 4}, SC: []int{2, 4}}
	case tech.ScenarioC:
		return topo.HammingParams{SR: []int{3}, SC: []int{2, 5}}
	case tech.ScenarioD:
		return topo.HammingParams{SR: []int{2, 4}, SC: []int{2, 4}}
	default:
		return topo.HammingParams{}
	}
}

// TopologyEntry is one comparison candidate for a grid.
type TopologyEntry struct {
	Name       string         // display name (topo registry label)
	Kind       string         // topo registry kind, the job-spec name
	Topology   *topo.Topology // nil if not applicable on this grid
	Params     string         // SHG parameter string, empty otherwise
	Applicable bool
	// Err records why an inapplicable entry does not fit the grid
	// (the registry's structural constraint error). It is diagnostic:
	// inapplicability is an expected outcome, exactly as in the
	// paper's Figure 6, not a failure of the set.
	Err error
}

// figure6Kinds lists the eight topology families of the paper's
// comparison, in Figure 6 order (registry kinds).
var figure6Kinds = []string{
	"ring", "mesh", "torus", "folded-torus",
	"hypercube", "slimnoc", "flattened-butterfly", "sparse-hamming",
}

// ComparisonSet builds the eight topologies of Figure 6 for a grid
// from the topology registry. Families with structural grid
// constraints (hypercube, SlimNoC) are marked not applicable — with
// the constraint's error preserved in the entry — when the grid does
// not admit them, exactly as in the paper (SlimNoC only applies to
// scenarios c and d, where N_T = 128 = 2*8^2). Build errors on
// applicable families abort the set: those are real failures, for
// every family alike.
func ComparisonSet(rows, cols int, shg topo.HammingParams) ([]TopologyEntry, error) {
	entries := make([]TopologyEntry, 0, len(figure6Kinds))
	for _, kind := range figure6Kinds {
		fam, ok := topo.FamilyByName(kind)
		if !ok {
			return nil, fmt.Errorf("noc: topology %q not registered", kind)
		}
		e := TopologyEntry{Name: fam.Label(), Kind: kind}
		if err := fam.Applicable(rows, cols); err != nil {
			e.Err = err
			entries = append(entries, e)
			continue
		}
		var sr, sc []int
		if kind == "sparse-hamming" {
			sr, sc = shg.SR, shg.SC
			e.Params = shg.String()
		}
		t, err := topo.ByName(kind, rows, cols, sr, sc)
		if err != nil {
			return nil, fmt.Errorf("noc: building %s: %w", fam.Label(), err)
		}
		e.Topology = t
		e.Applicable = true
		entries = append(entries, e)
	}
	return entries, nil
}

// Figure6Row is one topology's result in one scenario of Figure 6.
type Figure6Row struct {
	Scenario   tech.ScenarioID
	Topology   string
	Params     string
	Applicable bool
	Pred       *Prediction
}

// Figure6Options customizes the Figure 6 campaign beyond the paper's
// configuration — the registry-driven ablation knobs.
type Figure6Options struct {
	// Routing forces one algorithm (route registry name) onto every
	// topology instead of the paper's per-topology choice.
	Routing string
	// Pattern measures saturation and zero-load latency under a
	// traffic pattern (sim pattern registry name) instead of uniform
	// random.
	Pattern string
}

// Figure6 regenerates one scenario panel of Figure 6: the cost and
// performance of all applicable topologies under uniform random
// traffic with the paper's SHG parameters. It runs the panel as a
// parallel campaign on all cores; use Figure6Panels for explicit
// worker, cache, and option control plus per-panel campaign
// statistics.
func Figure6(id tech.ScenarioID, quality Quality) ([]Figure6Row, error) {
	panels, _, err := Figure6Panels([]tech.ScenarioID{id}, quality, nil, nil)
	if err != nil {
		return nil, err
	}
	return panels[0], nil
}

// Figure6Spec builds the declarative campaign spec of the Figure 6
// panels: one sweep per scenario over its applicable comparison set,
// with the paper's SHG parameters and routing choices. The checked-in
// preset files under examples/specs/ are exactly these specs
// serialized (pinned by a test), so cmd/shrun reproduces Figure 6
// bit-for-bit from a data file.
func Figure6Spec(ids []tech.ScenarioID, quality Quality, opts *Figure6Options) (*spec.Spec, error) {
	s, _, err := figure6Sweeps(ids, quality, opts)
	return s, err
}

// figure6Sweeps builds the Figure 6 spec together with the comparison
// entries each sweep was derived from, so Figure6Panels scaffolds its
// rows from the very sets the jobs came from.
func figure6Sweeps(ids []tech.ScenarioID, quality Quality, opts *Figure6Options) (*spec.Spec, [][]TopologyEntry, error) {
	s := &spec.Spec{
		Name:        "figure6-" + QualityName(quality),
		Description: "the paper's Figure 6 topology comparison, one sweep per evaluation scenario",
	}
	sets := make([][]TopologyEntry, 0, len(ids))
	for _, id := range ids {
		arch := tech.Scenario(id)
		if arch == nil {
			return nil, nil, fmt.Errorf("noc: unknown scenario %q", id)
		}
		shg := PaperSHGParams(id)
		entries, err := ComparisonSet(arch.Rows, arch.Cols, shg)
		if err != nil {
			return nil, nil, err
		}
		sweep := spec.Sweep{
			Label:     string(id),
			Mode:      string(exp.ModePredict),
			Arch:      spec.ArchSpec{Scenario: string(id)},
			Qualities: []string{QualityName(quality)},
			Seeds:     []int64{1},
		}
		if opts != nil && opts.Routing != "" {
			sweep.Routings = []string{opts.Routing}
		}
		if opts != nil && opts.Pattern != "" {
			sweep.Patterns = []string{opts.Pattern}
		}
		for _, e := range entries {
			if !e.Applicable {
				continue
			}
			ts := spec.TopologySpec{Kind: e.Kind}
			if e.Kind == "sparse-hamming" {
				ts.SR, ts.SC = shg.SR, shg.SC
			}
			if sweep.Routings == nil {
				ts.Routing = Figure6Routing(e.Kind)
			}
			sweep.Topologies = append(sweep.Topologies, ts)
		}
		s.Sweeps = append(s.Sweeps, sweep)
		sets = append(sets, entries)
	}
	return s, sets, nil
}

// Figure6Panels regenerates the Figure 6 panels of several scenarios
// as one campaign batch: the panels' spec (Figure6Spec) expands into
// one job per applicable topology of every scenario, so the runner's
// worker pool sees the whole sweep at once. A nil runner means the
// default parallel toolchain runner (all cores, no cache); nil opts
// mean the paper's configuration. The returned slices are aligned
// with ids: panels ordered like ComparisonSet, plus one PanelStats
// per scenario reporting the compute and simulation work behind it.
func Figure6Panels(ids []tech.ScenarioID, quality Quality, r *exp.Runner, opts *Figure6Options) ([][]Figure6Row, []PanelStats, error) {
	if r == nil {
		r = NewRunner(0, nil)
	}
	sp, sets, err := figure6Sweeps(ids, quality, opts)
	if err != nil {
		return nil, nil, err
	}
	groups, err := sp.ExpandSweeps()
	if err != nil {
		return nil, nil, err
	}

	pt := NewPanelTracker(sp.Labels())
	type slot struct{ panel, row int }
	var (
		jobs   []exp.Job
		slots  []slot
		panels = make([][]Figure6Row, len(ids))
	)
	for pi, id := range ids {
		entries := sets[pi]
		applicable := 0
		for _, e := range entries {
			if e.Applicable {
				applicable++
			}
		}
		if applicable != len(groups[pi]) {
			return nil, nil, fmt.Errorf("noc: figure 6 spec expanded %d jobs for scenario %s, want %d",
				len(groups[pi]), id, applicable)
		}
		rows := make([]Figure6Row, len(entries))
		gi := 0
		for ri, e := range entries {
			rows[ri] = Figure6Row{Scenario: id, Topology: e.Name, Params: e.Params, Applicable: e.Applicable}
			if !e.Applicable {
				continue
			}
			job := groups[pi][gi]
			gi++
			pt.Add(job, pi)
			jobs = append(jobs, job)
			slots = append(slots, slot{pi, ri})
		}
		panels[pi] = rows
	}

	pt.Attach(r)
	defer pt.Detach()
	results, _, err := r.Run(jobs)
	if err != nil {
		return nil, nil, fmt.Errorf("noc: figure 6 campaign: %w", err)
	}
	for k, res := range results {
		s := slots[k]
		panels[s.panel][s.row].Pred = PredictionFromResult(res)
		pt.AddResult(jobs[k], res)
	}
	return panels, pt.Stats, nil
}

// Figure6Routing returns the routing name (route registry) used for a
// topology kind in the Figure 6 comparison. The paper simulates every
// topology with "a routing algorithm that minimizes the number of
// router-to-router hops" (generic table routing in BookSim2), so the
// hypercube gets our generic hop-minimal tables here; mesh, torus and
// ring keep their standard deadlock-free schemes (which are
// hop-minimal on those topologies and are also what BookSim uses for
// them), selected as the empty co-designed default; the sparse
// Hamming graph uses the monotone dimension-order routing it is
// co-designed with, as Section II-C prescribes.
//
// Note: giving the hypercube its topology-tuned e-cube routing instead
// would raise its saturation throughput above the sparse Hamming
// graph's — the routing ablation benchmark (BenchmarkAblationRouting)
// quantifies this.
func Figure6Routing(kind string) string {
	if kind == "hypercube" {
		return "hop-minimal"
	}
	return ""
}
