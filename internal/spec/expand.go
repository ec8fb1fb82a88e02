package spec

// Expansion: the deterministic mapping from a spec to exp.Jobs, plus
// the shared job -> architecture resolution every campaign evaluator
// (noc's toolchain, dse's cost model) goes through.

import (
	"fmt"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// ArchForJob resolves a job's architecture: the preset named by
// Job.Scenario with the grid and arch overrides applied, validated.
// Presets are constructed fresh, so callers may mutate the result.
func ArchForJob(j exp.Job) (*tech.Arch, error) {
	arch := tech.ArchByName(j.Scenario)
	if arch == nil {
		return nil, fmt.Errorf("spec: unknown scenario %q", j.Scenario)
	}
	if j.Rows < 0 || j.Cols < 0 {
		return nil, fmt.Errorf("spec: scenario %q: negative grid %dx%d", j.Scenario, j.Rows, j.Cols)
	}
	if j.Rows > 0 {
		arch.Rows = j.Rows
	}
	if j.Cols > 0 {
		arch.Cols = j.Cols
	}
	if o := j.Arch; !o.IsZero() {
		if o.EndpointGE < 0 || o.CoresPerTile < 0 || o.FreqHz < 0 || o.LinkBWBits < 0 ||
			o.NumVCs < 0 || o.BufDepthFlits < 0 || o.TileAspect < 0 {
			return nil, fmt.Errorf("spec: scenario %q: negative arch override %+v", j.Scenario, *o)
		}
		if o.EndpointGE > 0 {
			arch.EndpointGE = o.EndpointGE
		}
		if o.CoresPerTile > 0 {
			arch.CoresPerTile = o.CoresPerTile
		}
		if o.FreqHz > 0 {
			arch.FreqHz = o.FreqHz
		}
		if o.LinkBWBits > 0 {
			arch.LinkBWBits = o.LinkBWBits
		}
		if o.NumVCs > 0 {
			arch.Proto.NumVCs = o.NumVCs
		}
		if o.BufDepthFlits > 0 {
			arch.Proto.BufDepthFlits = o.BufDepthFlits
		}
		if o.TileAspect > 0 {
			arch.TileAspect = o.TileAspect
		}
	}
	if err := arch.Validate(); err != nil {
		return nil, fmt.Errorf("spec: scenario %q with overrides: %w", j.Scenario, err)
	}
	return arch, nil
}

// override converts the spec's convenience units into a base-unit
// job override, or nil when nothing beyond the grid is customized.
func (a *ArchSpec) override() *exp.ArchOverride {
	o := exp.ArchOverride{
		EndpointGE:    a.EndpointMGE * 1e6,
		CoresPerTile:  a.CoresPerTile,
		FreqHz:        a.FreqGHz * 1e9,
		LinkBWBits:    a.LinkBWBits,
		NumVCs:        a.NumVCs,
		BufDepthFlits: a.BufDepthFlits,
		TileAspect:    a.TileAspect,
	}
	if o.IsZero() {
		return nil
	}
	return &o
}

// Job returns the architecture-only job the spec stands for — the
// shared currency for resolving an ArchSpec into a tech.Arch
// (ArchForJob) or stamping its scenario/grid/override onto campaign
// jobs. The campaign service's frontier endpoint resolves request
// architectures through it.
func (a *ArchSpec) Job() exp.Job {
	return exp.Job{
		Scenario: a.Scenario,
		Rows:     a.Rows,
		Cols:     a.Cols,
		Arch:     a.override(),
	}
}

// probeJob builds the architecture-only job used to resolve and
// validate the sweep's arch.
func (sw *Sweep) probeJob() exp.Job {
	return sw.Arch.Job()
}

// axis returns values, or the single default when empty.
func axis(values []string, def string) []string {
	if len(values) == 0 {
		return []string{def}
	}
	return values
}

// canonName maps a default's explicit spelling onto the empty string,
// so spec files may write "auto"/"uniform" while expanded jobs stay
// in the canonical form the rest of the toolchain produces.
func canonName(s, def string) string {
	if s == def {
		return ""
	}
	return s
}

// Expand returns the spec's jobs: every sweep's cross-product, in
// deterministic order (see the package doc). It does not validate;
// run Validate first for friendly errors.
func (s *Spec) Expand() ([]exp.Job, error) {
	groups, err := s.ExpandSweeps()
	if err != nil {
		return nil, err
	}
	var jobs []exp.Job
	for _, g := range groups {
		jobs = append(jobs, g...)
	}
	return jobs, nil
}

// MaxJobs bounds the jobs one spec may expand to. Specs arrive from
// untrusted clients (POST /v1/campaigns), so Validate and ExpandSweeps
// size every sweep's cross product from its axis lengths before
// allocating any job. The largest checked-in spec expands to 512.
const MaxJobs = 100_000

// ExpandSweeps returns the spec's jobs grouped per sweep, aligned
// with Labels. It fails without allocating the jobs when the spec
// would expand to more than MaxJobs.
func (s *Spec) ExpandSweeps() ([][]exp.Job, error) {
	axes, err := s.axes()
	if err != nil {
		return nil, err
	}
	groups := make([][]exp.Job, len(s.Sweeps))
	for i := range s.Sweeps {
		groups[i] = s.Sweeps[i].jobs(&axes[i])
	}
	return groups, nil
}

// axes resolves every sweep's axes and enforces MaxJobs over their
// summed cross products.
func (s *Spec) axes() ([]sweepAxes, error) {
	axes := make([]sweepAxes, len(s.Sweeps))
	total := 0
	for i := range s.Sweeps {
		a, err := s.Sweeps[i].axes()
		if err != nil {
			return nil, fmt.Errorf("spec %q: sweep %d (%s): %w", s.Name, i+1, s.Sweeps[i].label(i), err)
		}
		axes[i] = a
		if total += a.count(); total > MaxJobs {
			return nil, fmt.Errorf("spec %q: expands to more than %d jobs", s.Name, MaxJobs)
		}
	}
	return axes, nil
}

// sweepAxes are one sweep's resolved axes; its jobs are their cross
// product.
type sweepAxes struct {
	mode                          exp.Mode
	topos                         []TopologySpec
	routings, patterns, qualities []string
	loads                         []float64
	seeds                         []int64
}

// axes resolves the sweep's axes, applying the defaults.
func (sw *Sweep) axes() (sweepAxes, error) {
	mode, err := sw.mode()
	if err != nil {
		return sweepAxes{}, err
	}
	a := sweepAxes{
		mode:      mode,
		topos:     sw.Topologies,
		routings:  axis(sw.Routings, ""),
		patterns:  axis(sw.Patterns, ""),
		qualities: axis(sw.Qualities, ""),
		loads:     sw.Loads,
		seeds:     sw.Seeds,
	}
	if len(sw.Traces) > 0 {
		// Trace entries join the pattern axis as "trace:<path>" names;
		// the "" uniform default applies only when both lists are empty.
		merged := make([]string, 0, len(sw.Patterns)+len(sw.Traces))
		merged = append(merged, sw.Patterns...)
		for _, path := range sw.Traces {
			merged = append(merged, "trace:"+path)
		}
		a.patterns = merged
	}
	if mode != exp.ModeLoad {
		a.loads = []float64{0}
	}
	if len(a.seeds) == 0 {
		a.seeds = []int64{0}
	}
	if sw.HammingSpace {
		arch, err := ArchForJob(sw.probeJob())
		if err != nil {
			return sweepAxes{}, err
		}
		params, err := topo.HammingSpace(arch.Rows, arch.Cols, sw.maxConfigs())
		if err != nil {
			return sweepAxes{}, err
		}
		a.topos = make([]TopologySpec, len(params))
		for i, p := range params {
			a.topos[i] = TopologySpec{Kind: "sparse-hamming", SR: p.SR, SC: p.SC}
		}
	}
	return a, nil
}

// count returns the size of the axes' cross product, saturating just
// past MaxJobs so no product of axis lengths can overflow.
func (a *sweepAxes) count() int {
	mul := func(x, y int) int {
		if y == 0 {
			return 0
		}
		if x > MaxJobs/y {
			return MaxJobs + 1
		}
		return x * y
	}
	topoRoutings := 0
	for _, ts := range a.topos {
		if ts.Routing != "" {
			topoRoutings++
		} else {
			topoRoutings += len(a.routings)
		}
	}
	n := mul(min(topoRoutings, MaxJobs+1), len(a.patterns))
	n = mul(n, len(a.loads))
	n = mul(n, len(a.qualities))
	return mul(n, len(a.seeds))
}

// jobs expands one sweep's axes.
func (sw *Sweep) jobs(a *sweepAxes) []exp.Job {
	ov := sw.Arch.override()
	var jobs []exp.Job
	for _, ts := range a.topos {
		rlist := a.routings
		if ts.Routing != "" {
			rlist = []string{ts.Routing}
		}
		for _, routing := range rlist {
			for _, pattern := range a.patterns {
				for _, load := range a.loads {
					for _, quality := range a.qualities {
						for _, seed := range a.seeds {
							jobs = append(jobs, exp.Job{
								Mode:     a.mode,
								Scenario: sw.Arch.Scenario,
								Rows:     sw.Arch.Rows,
								Cols:     sw.Arch.Cols,
								Arch:     ov,
								Topo:     ts.Kind,
								SR:       ts.SR,
								SC:       ts.SC,
								Routing:  canonName(routing, "auto"),
								Pattern:  canonName(pattern, "uniform"),
								Load:     load,
								Quality:  quality,
								Seed:     seed,
							})
						}
					}
				}
			}
		}
	}
	return jobs
}
