// Package sim is a cycle-accurate network-on-chip simulator, the
// repository's stand-in for BookSim2 in the prediction toolchain of
// Figure 3 (see docs/SUBSTITUTIONS.md).
//
// The simulated microarchitecture matches the paper's evaluation
// configuration: input-queued routers with virtual channels (default
// 8 VCs with 32-flit buffers), credit-based flow control, separable
// round-robin VC and switch allocation, one-flit-per-cycle crossbars,
// and multi-cycle pipelined links whose latencies come from the
// physical model in package phys. Routing is table-based, following
// the deterministic paths of package route, with VC classes mapped
// onto disjoint VC ranges for deadlock freedom.
//
// The simulator reports the two performance metrics the paper uses:
// zero-load latency and saturation throughput.
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Pattern generates destinations for synthetic traffic.
type Pattern interface {
	// Dest returns the destination tile for a packet injected at tile
	// src, or -1 to skip injection (e.g. a pattern's fixed point).
	Dest(src int, rng *rand.Rand) int
	// Name identifies the pattern.
	Name() string
}

// UniformRandom sends every packet to a destination drawn uniformly
// from all other tiles (the pattern used throughout the paper's
// evaluation).
type UniformRandom struct {
	N int
}

// Name implements Pattern.
func (u UniformRandom) Name() string { return "uniform" }

// Dest implements Pattern.
func (u UniformRandom) Dest(src int, rng *rand.Rand) int {
	if u.N < 2 {
		return -1
	}
	d := rng.Intn(u.N - 1)
	if d >= src {
		d++
	}
	return d
}

// Transpose sends tile (r, c) of the R x C grid to the tile holding
// the transposed matrix position: row-major index c*R + r on the same
// grid. On a square grid this is the classic (r, c) -> (c, r) mirror;
// on rectangular grids it remains a permutation of the tile indices
// (the transpose of row-major order). Fixed points stay silent.
type Transpose struct {
	Rows, Cols int
}

// Name implements Pattern.
func (p Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (p Transpose) Dest(src int, _ *rand.Rand) int {
	r, c := src/p.Cols, src%p.Cols
	d := c*p.Rows + r
	if d == src {
		return -1
	}
	return d
}

// BitComplement sends tile i to tile N-1-i.
type BitComplement struct {
	N int
}

// Name implements Pattern.
func (p BitComplement) Name() string { return "bitcomp" }

// Dest implements Pattern.
func (p BitComplement) Dest(src int, _ *rand.Rand) int {
	d := p.N - 1 - src
	if d == src {
		return -1
	}
	return d
}

// Shuffle sends tile i to tile (2i mod N-1) (perfect shuffle); tiles
// mapping to themselves stay silent.
type Shuffle struct {
	N int
}

// Name implements Pattern.
func (p Shuffle) Name() string { return "shuffle" }

// Dest implements Pattern.
func (p Shuffle) Dest(src int, _ *rand.Rand) int {
	if p.N < 3 {
		return -1
	}
	d := (2 * src) % (p.N - 1)
	if src == p.N-1 {
		d = p.N - 1
	}
	if d == src {
		return -1
	}
	return d
}

// Hotspot sends a fraction of traffic to a fixed hot tile and the
// rest uniformly.
type Hotspot struct {
	N        int
	Hot      int
	Fraction float64 // probability of targeting the hot tile
}

// Name implements Pattern.
func (p Hotspot) Name() string { return "hotspot" }

// Dest implements Pattern.
func (p Hotspot) Dest(src int, rng *rand.Rand) int {
	if rng.Float64() < p.Fraction && src != p.Hot {
		return p.Hot
	}
	return UniformRandom{N: p.N}.Dest(src, rng)
}

// Neighbor sends every packet one tile to the east (wrapping), a
// best-case locality pattern.
type Neighbor struct {
	Rows, Cols int
}

// Name implements Pattern.
func (p Neighbor) Name() string { return "neighbor" }

// Dest implements Pattern.
func (p Neighbor) Dest(src int, _ *rand.Rand) int {
	r, c := src/p.Cols, src%p.Cols
	d := r*p.Cols + (c+1)%p.Cols
	if d == src {
		// Single-column grids have no eastern neighbor; skip rather
		// than self-send (the engine drops self-sends anyway, so this
		// only makes the no-destination case explicit).
		return -1
	}
	return d
}

// PatternFactory constructs a pattern instance for an R x C grid.
type PatternFactory func(rows, cols int) (Pattern, error)

// PatternSchemeFactory constructs a pattern from a scheme-qualified
// name of the form "<scheme>:<arg>" — name is the full qualified
// name (the pattern's identity in job specs and cache keys) and arg
// the part after the colon. The trace subsystem registers the
// "trace" scheme, resolving "trace:<path>" to a Replay of the trace
// file at path (see replay.go).
type PatternSchemeFactory func(name, arg string, rows, cols int) (Pattern, error)

var (
	patternOrder   []string
	patternByName  = map[string]PatternFactory{}
	patternSchemes = map[string]PatternSchemeFactory{}
)

// RegisterPatternScheme adds a pattern-name scheme: every name of the
// form "<scheme>:<arg>" resolves through its factory. Like
// RegisterPattern it panics on an empty or duplicate scheme, and on a
// scheme containing the ':' separator.
func RegisterPatternScheme(scheme string, f PatternSchemeFactory) {
	if scheme == "" {
		panic("sim: RegisterPatternScheme with empty scheme")
	}
	if strings.ContainsRune(scheme, ':') {
		panic(fmt.Sprintf("sim: RegisterPatternScheme(%q) with ':' in the scheme", scheme))
	}
	if f == nil {
		panic(fmt.Sprintf("sim: RegisterPatternScheme(%q) with nil factory", scheme))
	}
	if _, dup := patternSchemes[scheme]; dup {
		panic(fmt.Sprintf("sim: RegisterPatternScheme(%q) twice", scheme))
	}
	patternSchemes[scheme] = f
}

// PatternSchemeNames lists the registered pattern-name schemes
// (sorted; scheme registration order is not meaningful).
func PatternSchemeNames() []string {
	names := make([]string, 0, len(patternSchemes))
	for s := range patternSchemes {
		names = append(names, s)
	}
	slices.Sort(names)
	return names
}

// RegisterPattern adds a traffic pattern under a name. It panics on
// an empty or duplicate name — registration happens at init time, so
// either is a programming error.
func RegisterPattern(name string, f PatternFactory) {
	if name == "" {
		panic("sim: RegisterPattern with empty name")
	}
	if f == nil {
		panic(fmt.Sprintf("sim: RegisterPattern(%q) with nil factory", name))
	}
	if _, dup := patternByName[name]; dup {
		panic(fmt.Sprintf("sim: RegisterPattern(%q) twice", name))
	}
	patternByName[name] = f
	patternOrder = append(patternOrder, name)
}

// PatternNames lists the registered pattern names in registration
// order.
func PatternNames() []string {
	return append([]string(nil), patternOrder...)
}

// PatternRegistered reports whether name selects a pattern: a
// registered one, the empty string for the uniform default, or a
// scheme-qualified name whose scheme is registered (the scheme's
// argument — e.g. a trace path — is only checked when the pattern is
// actually constructed with PatternByName).
func PatternRegistered(name string) bool {
	if name == "" {
		return true
	}
	if i := strings.IndexByte(name, ':'); i >= 0 {
		_, ok := patternSchemes[name[:i]]
		return ok
	}
	_, ok := patternByName[name]
	return ok
}

// PatternByName constructs a pattern for an R x C grid by name; the
// empty string selects uniform random, the pattern used throughout
// the paper's evaluation, and names of the form "<scheme>:<arg>"
// resolve through the registered schemes (e.g. "trace:<path>").
// Unknown names report the registered ones.
func PatternByName(name string, rows, cols int) (Pattern, error) {
	if name == "" {
		name = "uniform"
	}
	if i := strings.IndexByte(name, ':'); i >= 0 {
		f, ok := patternSchemes[name[:i]]
		if !ok {
			return nil, fmt.Errorf("sim: unknown traffic pattern scheme %q in %q (want one of %s)",
				name[:i], name, strings.Join(PatternSchemeNames(), "|"))
		}
		return f(name, name[i+1:], rows, cols)
	}
	f, ok := patternByName[name]
	if !ok {
		return nil, fmt.Errorf("sim: unknown traffic pattern %q (want one of %s)",
			name, strings.Join(PatternNames(), "|"))
	}
	return f(rows, cols)
}

// init registers the classic synthetic patterns.
func init() {
	RegisterPattern("uniform", func(rows, cols int) (Pattern, error) {
		return UniformRandom{N: rows * cols}, nil
	})
	RegisterPattern("transpose", func(rows, cols int) (Pattern, error) {
		return Transpose{Rows: rows, Cols: cols}, nil
	})
	RegisterPattern("bitcomp", func(rows, cols int) (Pattern, error) {
		return BitComplement{N: rows * cols}, nil
	})
	RegisterPattern("shuffle", func(rows, cols int) (Pattern, error) {
		return Shuffle{N: rows * cols}, nil
	})
	RegisterPattern("hotspot", func(rows, cols int) (Pattern, error) {
		return Hotspot{N: rows * cols, Hot: (rows/2)*cols + cols/2, Fraction: 0.1}, nil
	})
	RegisterPattern("neighbor", func(rows, cols int) (Pattern, error) {
		return Neighbor{Rows: rows, Cols: cols}, nil
	})
}
