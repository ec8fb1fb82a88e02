// Package spec defines declarative campaign specifications: JSON
// files that describe an arbitrary evaluation campaign — any
// architecture (a preset plus overrides of its grid, tile budget,
// cores per tile, and link/router parameters), crossed over
// topologies, routing algorithms, traffic patterns, injection rates,
// quality tiers, and seeds — and expand deterministically into
// serializable exp.Jobs for the parallel campaign runner.
//
// The spec layer is what turns "add a new evaluation scenario" from a
// five-layer code change into a data-file change: topology kinds
// resolve through the topo registry, routing names through the route
// registry, and traffic patterns through the sim pattern registry, so
// every registered capability is reachable from a spec file. The
// paper's own presets (the Figure 6 panels, the MemPool validation)
// are checked in as spec files under examples/specs/ and executed by
// cmd/shrun.
//
// Determinism: expansion is a pure function of the spec — sweeps in
// file order, and within a sweep the cross-product in fixed nesting
// order (topology, routing, pattern, load, quality, seed; innermost
// last). Identical specs therefore expand to identical job lists,
// and with the runner's content-keyed cache, re-running a spec
// recomputes nothing.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/phys"
	"sparsehamming/internal/route"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// Spec is one campaign specification: a named list of sweeps whose
// expansions concatenate into the campaign's job batch.
type Spec struct {
	// Name identifies the campaign (reports, default cache labels).
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Sweeps are expanded in order.
	Sweeps []Sweep `json:"sweeps"`
}

// Sweep is one cross-product group: a single architecture evaluated
// over topologies x routings x patterns x loads x qualities x seeds.
type Sweep struct {
	// Label names the sweep in reports and per-sweep statistics; it
	// defaults to "<index>:<scenario>".
	Label string `json:"label,omitempty"`

	// Mode selects what each job evaluates: "predict" (default, the
	// full toolchain), "cost" (physical model only), "load" (one
	// simulated offered-load point per entry of Loads), or "surrogate"
	// (physical model plus closed-form analytic performance estimates,
	// never a simulation — the first stage of surrogate-guided
	// design-space exploration).
	Mode string `json:"mode,omitempty"`

	// Arch is the architecture every job of the sweep runs on.
	Arch ArchSpec `json:"arch"`

	// Topologies lists the topology instances to evaluate. Leave it
	// empty when HammingSpace generates the axis instead.
	Topologies []TopologySpec `json:"topologies,omitempty"`

	// HammingSpace replaces the Topologies axis with the full sparse
	// Hamming configuration enumeration of the sweep's grid — every
	// subset of {2..C-1} x {2..R-1}, in the canonical order the dse
	// explorer uses — turning a design-space sweep into a data-file
	// change. MaxConfigs caps the enumeration (0 means 65536); the
	// sweep is rejected when the grid's space exceeds the cap.
	HammingSpace bool `json:"hamming_space,omitempty"`
	MaxConfigs   int  `json:"max_configs,omitempty"`

	// Routings names the routing algorithms to cross with (route
	// registry names, or "auto" for each topology's co-designed
	// default). Empty means ["auto"]. A topology entry pinning its
	// own Routing bypasses this axis.
	Routings []string `json:"routings,omitempty"`

	// Patterns names the traffic patterns to cross with (sim pattern
	// registry names). Empty means ["uniform"]. Predict-mode sweeps
	// measure saturation and zero-load latency under the pattern;
	// cost-mode sweeps must leave it empty.
	Patterns []string `json:"patterns,omitempty"`

	// Traces lists workload trace files to replay (paths resolved
	// against the process working directory, the same way shrun
	// resolves the spec path's siblings). Each entry expands to the
	// pattern name "trace:<path>" and merges after Patterns on the
	// pattern axis. Only "load" mode accepts traces: the Loads axis
	// becomes the replay's time-dilation scale (1.0 replays the trace
	// at recorded intensity), and the saturation searches of the other
	// simulating modes are undefined for recorded workloads.
	Traces []string `json:"traces,omitempty"`

	// Loads lists offered injection rates in flits/node/cycle for
	// "load" mode (required there, rejected elsewhere). For trace
	// entries the load is the replay time-dilation scale instead.
	Loads []float64 `json:"loads,omitempty"`

	// Qualities lists simulation quality tiers: "quick", "full", or
	// "adaptive". Empty means ["quick"].
	Qualities []string `json:"qualities,omitempty"`

	// Seeds lists simulation seeds; empty means [0], deriving a
	// deterministic per-job seed from each job's content hash.
	Seeds []int64 `json:"seeds,omitempty"`
}

// ArchSpec selects a preset architecture and optional overrides.
// Convenience units (MGE, GHz) are converted to base units during
// expansion.
type ArchSpec struct {
	// Scenario names the preset: "a"|"b"|"c"|"d" or "mempool".
	Scenario string `json:"scenario"`
	// Rows/Cols override the preset's tile grid when positive.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// EndpointMGE overrides the per-tile endpoint budget, in MGE.
	EndpointMGE float64 `json:"endpoint_mge,omitempty"`
	// CoresPerTile overrides the informational core count.
	CoresPerTile int `json:"cores_per_tile,omitempty"`
	// FreqGHz overrides the NoC clock, in GHz.
	FreqGHz float64 `json:"freq_ghz,omitempty"`
	// LinkBWBits overrides the per-link bandwidth (= flit width).
	LinkBWBits float64 `json:"link_bw_bits,omitempty"`
	// NumVCs / BufDepthFlits override the router buffering.
	NumVCs        int `json:"num_vcs,omitempty"`
	BufDepthFlits int `json:"buf_depth_flits,omitempty"`
	// TileAspect overrides the tile height:width ratio.
	TileAspect float64 `json:"tile_aspect,omitempty"`
}

// TopologySpec is one topology instance in a sweep.
type TopologySpec struct {
	// Kind is the topo registry name ("mesh", "sparse-hamming", ...).
	Kind string `json:"kind"`
	// SR/SC parameterize the sparse Hamming graph (offset sets) and
	// the Ruche network (factor in SR[0]); rejected on families that
	// do not read them.
	SR []int `json:"sr,omitempty"`
	SC []int `json:"sc,omitempty"`
	// Routing, when set, pins this topology to one algorithm instead
	// of crossing it with the sweep's Routings axis (Figure 6 gives
	// the hypercube hop-minimal tables this way).
	Routing string `json:"routing,omitempty"`
}

// Parse decodes a spec from JSON, rejecting unknown fields so typos
// in spec files fail loudly instead of silently shrinking a campaign.
func Parse(data []byte) (*Spec, error) {
	return ParseReader(bytes.NewReader(data))
}

// ParseReader decodes a spec from a stream (an HTTP request body, a
// file) with the same strictness as Parse. It also rejects trailing
// data after the spec object, so a concatenated or truncated upload
// fails instead of silently dropping sweeps.
func ParseReader(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after spec object")
	}
	return &s, nil
}

// Hash returns the campaign's stable content hash: a hex digest over
// the expanded job content keys in expansion order. Two specs hash
// equally exactly when they expand to the same job sequence, so
// formatting, field order, and spelling a default explicitly all
// leave the hash unchanged, while any change that alters even one
// job's cache identity changes it. The name and description are
// deliberately excluded — the hash identifies the work, not the
// label. Expansion errors propagate (run Validate first for friendly
// ones).
func (s *Spec) Hash() (string, error) {
	jobs, err := s.Expand()
	if err != nil {
		return "", err
	}
	return HashJobs(jobs), nil
}

// HashJobs digests an already-expanded job list the way Hash does —
// for callers that hold the expansion and should not pay for a
// second one (the campaign service hashes every submission).
func HashJobs(jobs []exp.Job) string {
	h := sha256.New()
	for _, j := range jobs {
		io.WriteString(h, j.Key())
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// ParseFile reads and decodes a spec file.
func ParseFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// QualityNames lists the simulation quality tiers the toolchain
// implements (package noc), in canonical order: the fixed-budget
// "quick" and "full" tiers, and the adaptive-control "adaptive" tier
// (quick's budgets as caps, early verdicts and steady-state stopping
// inside them). Validation and the campaign service's registry
// endpoint both derive from this list.
func QualityNames() []string { return []string{"quick", "full", "adaptive"} }

// validQualities are the accepted quality spellings: QualityNames
// plus the empty string (the quick default).
var validQualities = func() map[string]bool {
	m := map[string]bool{"": true}
	for _, q := range QualityNames() {
		m[q] = true
	}
	return m
}()

// Validate checks the whole spec against the registries without
// running anything: architectures resolve and validate, topology
// kinds are registered and structurally applicable on the sweep's
// grid (instances are built and connectivity-checked), routing and
// pattern names are registered, the mode's axis requirements hold,
// simulating sweeps fit the engine's limits (checkEngineLimits, one
// cost-model evaluation per topology), and the spec expands to at
// most MaxJobs jobs. A valid spec can still fail at run time only for
// deep incompatibilities validation does not simulate (e.g. pinning a
// torus-only routing onto a mesh).
func (s *Spec) Validate() error {
	if len(s.Sweeps) == 0 {
		return fmt.Errorf("spec %q: no sweeps", s.Name)
	}
	for i := range s.Sweeps {
		if err := s.Sweeps[i].validate(); err != nil {
			return fmt.Errorf("spec %q: sweep %d (%s): %w", s.Name, i+1, s.Sweeps[i].label(i), err)
		}
	}
	_, err := s.axes()
	return err
}

// validate checks one sweep.
func (sw *Sweep) validate() error {
	mode, err := sw.mode()
	if err != nil {
		return err
	}
	arch, err := ArchForJob(sw.probeJob())
	if err != nil {
		return err
	}
	simulating := mode == exp.ModePredict || mode == exp.ModeLoad
	if sw.MaxConfigs < 0 {
		return fmt.Errorf("negative max_configs %d", sw.MaxConfigs)
	}
	if sw.MaxConfigs > 0 && !sw.HammingSpace {
		return fmt.Errorf("max_configs applies to hamming_space sweeps only")
	}
	if sw.HammingSpace {
		if len(sw.Topologies) > 0 {
			return fmt.Errorf("hamming_space generates the topology axis; leave topologies empty")
		}
		fam, ok := topo.FamilyByName("sparse-hamming")
		if !ok {
			return fmt.Errorf("sparse-hamming family not registered")
		}
		if err := fam.Applicable(arch.Rows, arch.Cols); err != nil {
			return err
		}
		params, err := topo.HammingSpace(arch.Rows, arch.Cols, sw.maxConfigs())
		if err != nil {
			return err
		}
		if simulating {
			for _, p := range params {
				t, err := topo.ByName("sparse-hamming", arch.Rows, arch.Cols, p.SR, p.SC)
				if err != nil {
					return err
				}
				if err := checkEngineLimits(arch, t); err != nil {
					return fmt.Errorf("sparse-hamming sr=%v sc=%v: %w", p.SR, p.SC, err)
				}
			}
		}
	} else if len(sw.Topologies) == 0 {
		return fmt.Errorf("no topologies")
	}
	for _, ts := range sw.Topologies {
		fam, ok := topo.FamilyByName(ts.Kind)
		if !ok {
			return fmt.Errorf("unknown topology %q", ts.Kind)
		}
		if !fam.Parameterized && (len(ts.SR) > 0 || len(ts.SC) > 0) {
			return fmt.Errorf("topology %q does not read sr/sc offsets", ts.Kind)
		}
		if err := fam.Applicable(arch.Rows, arch.Cols); err != nil {
			return err
		}
		t, err := topo.ByName(ts.Kind, arch.Rows, arch.Cols, ts.SR, ts.SC)
		if err != nil {
			return err
		}
		if err := t.Validate(); err != nil {
			return err
		}
		if simulating {
			if err := checkEngineLimits(arch, t); err != nil {
				return fmt.Errorf("topology %q: %w", ts.Kind, err)
			}
		}
		if !route.Registered(ts.Routing) {
			return fmt.Errorf("topology %q pins unknown routing %q", ts.Kind, ts.Routing)
		}
	}
	for _, name := range sw.Routings {
		if !route.Registered(name) {
			return fmt.Errorf("unknown routing %q", name)
		}
	}
	for _, name := range sw.Patterns {
		if _, err := sim.PatternByName(name, arch.Rows, arch.Cols); err != nil {
			return err
		}
		if mode != exp.ModeLoad && strings.Contains(name, ":") {
			return fmt.Errorf("trace pattern %q requires mode \"load\" (saturation search is undefined for replays)", name)
		}
	}
	if len(sw.Traces) > 0 && mode != exp.ModeLoad {
		return fmt.Errorf("traces require mode \"load\" (saturation search is undefined for replays)")
	}
	for _, path := range sw.Traces {
		if path == "" {
			return fmt.Errorf("empty trace path")
		}
		// Resolves through the pattern registry's "trace" scheme, which
		// parses, validates, and grid-checks the file.
		if _, err := sim.PatternByName("trace:"+path, arch.Rows, arch.Cols); err != nil {
			return err
		}
	}
	for _, q := range sw.Qualities {
		if !validQualities[q] {
			return fmt.Errorf("unknown quality %q (want one of %s)", q, strings.Join(QualityNames(), ", "))
		}
	}
	switch mode {
	case exp.ModeLoad:
		if len(sw.Loads) == 0 {
			return fmt.Errorf("load mode needs at least one load")
		}
		for _, l := range sw.Loads {
			if l <= 0 || l > 1 {
				return fmt.Errorf("load %g outside (0, 1] flits/node/cycle", l)
			}
		}
	case exp.ModeCost:
		if len(sw.Loads) > 0 || len(sw.Patterns) > 0 || len(sw.Routings) > 0 {
			return fmt.Errorf("cost mode ignores routings/patterns/loads; leave them empty")
		}
		// A pinned routing would fragment cache keys the same way.
		for _, ts := range sw.Topologies {
			if ts.Routing != "" {
				return fmt.Errorf("cost mode ignores routing; drop the pin on topology %q", ts.Kind)
			}
		}
	case exp.ModeSurrogate:
		// Routing legitimately changes the analytic estimates, so the
		// routing axis (and pins) stay available; the simulation axes
		// would only fragment cache keys.
		if len(sw.Loads) > 0 || len(sw.Patterns) > 0 || len(sw.Qualities) > 0 {
			return fmt.Errorf("surrogate mode ignores patterns/loads/qualities; leave them empty")
		}
	default: // predict
		if len(sw.Loads) > 0 {
			return fmt.Errorf("loads require mode \"load\"")
		}
	}
	return nil
}

// SimConfig returns the simulator configuration every simulating job
// of topology t on arch builds, given the cost model's link latencies:
// the buffering, link and router pipelines, and packet length. The
// caller adds the routing, traffic, seed, and schedule. The toolchain
// (package noc) simulates from it, and validation checks it against
// the engine's limits.
func SimConfig(arch *tech.Arch, t *topo.Topology, linkLatency []int) sim.Config {
	return sim.Config{
		Topo:   t,
		NumVCs: arch.Proto.NumVCs, BufDepth: arch.Proto.BufDepthFlits,
		LinkLatency: linkLatency, RouterDelay: tech.RouterDelay,
		PacketLen: arch.PacketLenFlits(),
	}
}

// checkEngineLimits runs the cost model of topology t on arch once and
// checks the SimConfig its simulating jobs build against the engine's
// limits (sim.Config.CheckLimits), so validation rejects what every
// such job would fail with, in the same words.
func checkEngineLimits(arch *tech.Arch, t *topo.Topology) error {
	cost, err := phys.Evaluate(arch, t)
	if err != nil {
		return err
	}
	cfg := SimConfig(arch, t, cost.LinkLatencies)
	return cfg.CheckLimits()
}

// mode resolves the sweep's job mode, defaulting to predict.
func (sw *Sweep) mode() (exp.Mode, error) {
	switch sw.Mode {
	case "", string(exp.ModePredict):
		return exp.ModePredict, nil
	case string(exp.ModeCost):
		return exp.ModeCost, nil
	case string(exp.ModeLoad):
		return exp.ModeLoad, nil
	case string(exp.ModeSurrogate):
		return exp.ModeSurrogate, nil
	default:
		return "", fmt.Errorf("unknown mode %q (want %s)", sw.Mode, strings.Join(exp.ModeNames(), ", "))
	}
}

// maxConfigs returns the sweep's enumeration cap (0 means 65536 —
// conservative for a declarative file, unlike the explorer's
// programmatic default).
func (sw *Sweep) maxConfigs() int {
	if sw.MaxConfigs > 0 {
		return sw.MaxConfigs
	}
	return 1 << 16
}

// label returns the sweep's report label, defaulting to
// "<index>:<scenario>".
func (sw *Sweep) label(i int) string {
	if sw.Label != "" {
		return sw.Label
	}
	return fmt.Sprintf("%d:%s", i+1, sw.Arch.Scenario)
}

// Labels returns the report label of every sweep, in order.
func (s *Spec) Labels() []string {
	labels := make([]string, len(s.Sweeps))
	for i := range s.Sweeps {
		labels[i] = s.Sweeps[i].label(i)
	}
	return labels
}
