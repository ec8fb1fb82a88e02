// Package trace defines the repository's versioned workload-trace
// format: per-tile timestamped injection records that the simulator
// (package sim) replays in place of its synthetic Bernoulli traffic
// generators. A trace is the data form of a workload — captured from
// a synthetic pattern, generated by the application-shaped generators
// in this package, or produced by any external tool that can write
// the line format below — and once written it is sweepable,
// spec-addressable, cacheable, and servable through the `trace:<path>`
// pattern names of sim's registry.
//
// # Format (version 1)
//
// A trace is a UTF-8 text file. The first line must be the magic
//
//	#shtrace v1
//
// followed by directive lines, comments, and records in any order,
// except that the mandatory
//
//	#grid <rows> <cols>
//
// directive must precede the first record. Two optional directives
// carry the remaining metadata: `#horizon <cycles>` declares the
// cycle horizon (every record cycle is < horizon; 0 or absent means
// unknown) and `#generator <free-form provenance>` records how the
// trace was produced. Unrecognized `#` lines are comments and are
// ignored. Records are four space-separated decimal integers:
//
//	<cycle> <src> <dst> <size>
//
// meaning tile src hands a size-flit packet for tile dst to its
// injection queue at the given cycle. Validate enforces the semantic
// rules: in-range tiles, no self-traffic, sizes in [1, MaxPacketLen],
// non-negative cycles below the horizon, and per-source monotone
// (non-decreasing) cycles. Records of different sources may appear in
// any global order, though the writers in this repository emit them
// globally sorted by cycle.
package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// magic is the mandatory first line of a version-1 trace.
const magic = "#shtrace v1"

// MaxPacketLen is the largest packet size (in flits) Validate
// accepts. The simulator stores per-packet lengths in 16 bits; this
// bound keeps traces within it with a wide safety margin.
const MaxPacketLen = 4096

// Meta is the trace header: the grid the tile indices refer to, the
// cycle horizon (0 = unknown; when positive, every record cycle is
// below it), and free-form generator provenance.
type Meta struct {
	Rows, Cols int
	Horizon    int64
	Generator  string
}

// Tiles returns the number of tiles of the trace's grid.
func (m Meta) Tiles() int { return m.Rows * m.Cols }

// Record is one injection: tile Src hands a Size-flit packet for tile
// Dst to its injection queue at cycle Cycle.
type Record struct {
	Cycle    int64
	Src, Dst int32
	Size     int
}

// Trace is a parsed workload trace: header plus injection records.
type Trace struct {
	Meta    Meta
	Records []Record
}

// parseError renders a parse failure with its 1-based line number.
func parseError(line int, format string, args ...any) error {
	return fmt.Errorf("trace: line %d: %s", line, fmt.Sprintf(format, args...))
}

// Parse reads a version-1 trace from r. It enforces the syntax only
// (magic line, directive shapes, four-integer records, #grid before
// the first record); run Validate for the semantic rules. Parse never
// panics on malformed input — every failure is an error.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		return nil, fmt.Errorf("trace: empty input (want %q first line)", magic)
	}
	if strings.TrimSpace(sc.Text()) != magic {
		return nil, parseError(1, "bad magic %q (want %q)", sc.Text(), magic)
	}
	t := &Trace{}
	haveGrid := false
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' {
			fields := strings.Fields(line)
			switch fields[0] {
			case "#grid":
				if haveGrid {
					return nil, parseError(lineNo, "duplicate #grid directive")
				}
				if len(fields) != 3 {
					return nil, parseError(lineNo, "want #grid <rows> <cols>, got %q", line)
				}
				rows, err := strconv.Atoi(fields[1])
				if err != nil {
					return nil, parseError(lineNo, "bad #grid rows %q", fields[1])
				}
				cols, err := strconv.Atoi(fields[2])
				if err != nil {
					return nil, parseError(lineNo, "bad #grid cols %q", fields[2])
				}
				t.Meta.Rows, t.Meta.Cols = rows, cols
				haveGrid = true
			case "#horizon":
				if len(fields) != 2 {
					return nil, parseError(lineNo, "want #horizon <cycles>, got %q", line)
				}
				h, err := strconv.ParseInt(fields[1], 10, 64)
				if err != nil {
					return nil, parseError(lineNo, "bad #horizon %q", fields[1])
				}
				if h < 0 {
					return nil, parseError(lineNo, "negative #horizon %d", h)
				}
				t.Meta.Horizon = h
			case "#generator":
				t.Meta.Generator = strings.TrimSpace(strings.TrimPrefix(line, "#generator"))
			default:
				// Unrecognized directives are comments.
			}
			continue
		}
		if !haveGrid {
			return nil, parseError(lineNo, "record before the #grid directive")
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, parseError(lineNo, "want <cycle> <src> <dst> <size>, got %q", line)
		}
		cycle, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, parseError(lineNo, "bad cycle %q", f[0])
		}
		src, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return nil, parseError(lineNo, "bad src %q", f[1])
		}
		dst, err := strconv.ParseInt(f[2], 10, 32)
		if err != nil {
			return nil, parseError(lineNo, "bad dst %q", f[2])
		}
		size, err := strconv.ParseInt(f[3], 10, 32)
		if err != nil {
			return nil, parseError(lineNo, "bad size %q", f[3])
		}
		t.Records = append(t.Records, Record{
			Cycle: cycle,
			Src:   int32(src),
			Dst:   int32(dst),
			Size:  int(size),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
	}
	if !haveGrid {
		return nil, fmt.Errorf("trace: missing #grid directive")
	}
	return t, nil
}

// Write renders t in the version-1 line format. It writes the header
// in canonical order (magic, #grid, #horizon when positive,
// #generator when non-empty) and then the records verbatim, so
// Parse(Write(t)) reproduces any trace Parse can produce. The
// generator string must be a single line (Validate enforces it).
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, magic)
	fmt.Fprintf(bw, "#grid %d %d\n", t.Meta.Rows, t.Meta.Cols)
	if t.Meta.Horizon > 0 {
		fmt.Fprintf(bw, "#horizon %d\n", t.Meta.Horizon)
	}
	if t.Meta.Generator != "" {
		fmt.Fprintf(bw, "#generator %s\n", t.Meta.Generator)
	}
	for i := range t.Records {
		r := &t.Records[i]
		fmt.Fprintf(bw, "%d %d %d %d\n", r.Cycle, r.Src, r.Dst, r.Size)
	}
	return bw.Flush()
}

// Validate checks the semantic rules of the format: a positive grid,
// in-range tiles, no self-traffic, sizes in [1, MaxPacketLen],
// non-negative record cycles below a declared horizon, per-source
// non-decreasing cycles, and a single-line generator string with no
// surrounding whitespace (so Write round-trips it).
func (t *Trace) Validate() error {
	m := t.Meta
	if m.Rows < 1 || m.Cols < 1 {
		return fmt.Errorf("trace: bad grid %dx%d", m.Rows, m.Cols)
	}
	if m.Horizon < 0 {
		return fmt.Errorf("trace: negative horizon %d", m.Horizon)
	}
	if strings.ContainsAny(m.Generator, "\r\n") {
		return fmt.Errorf("trace: generator string contains a line break")
	}
	if m.Generator != strings.TrimSpace(m.Generator) {
		return fmt.Errorf("trace: generator string %q has surrounding whitespace", m.Generator)
	}
	n := m.Tiles()
	lastCycle := make([]int64, n)
	for i := range t.Records {
		r := &t.Records[i]
		if r.Cycle < 0 {
			return fmt.Errorf("trace: record %d: negative cycle %d", i, r.Cycle)
		}
		if m.Horizon > 0 && r.Cycle >= m.Horizon {
			return fmt.Errorf("trace: record %d: cycle %d beyond horizon %d", i, r.Cycle, m.Horizon)
		}
		if r.Src < 0 || int(r.Src) >= n {
			return fmt.Errorf("trace: record %d: src %d outside %dx%d grid", i, r.Src, m.Rows, m.Cols)
		}
		if r.Dst < 0 || int(r.Dst) >= n {
			return fmt.Errorf("trace: record %d: dst %d outside %dx%d grid", i, r.Dst, m.Rows, m.Cols)
		}
		if r.Src == r.Dst {
			return fmt.Errorf("trace: record %d: self-traffic at tile %d", i, r.Src)
		}
		if r.Size < 1 || r.Size > MaxPacketLen {
			return fmt.Errorf("trace: record %d: size %d outside [1, %d]", i, r.Size, MaxPacketLen)
		}
		if r.Cycle < lastCycle[r.Src] {
			return fmt.Errorf("trace: record %d: cycle %d before cycle %d of an earlier source-%d record",
				i, r.Cycle, lastCycle[r.Src], r.Src)
		}
		lastCycle[r.Src] = r.Cycle
	}
	return nil
}

// EffectiveHorizon returns the declared horizon, or one past the last
// record cycle when none is declared (0 for an empty undeclared
// trace).
func (t *Trace) EffectiveHorizon() int64 {
	if t.Meta.Horizon > 0 {
		return t.Meta.Horizon
	}
	var h int64
	for i := range t.Records {
		if c := t.Records[i].Cycle + 1; c > h {
			h = c
		}
	}
	return h
}

// FlitCounts sums record sizes per (src, dst) pair — the flit totals
// a faithful replay of the trace injects on each flow. The capture
// property tests compare these against the capturing run's own
// per-flow counts.
func (t *Trace) FlitCounts() map[[2]int32]int64 {
	counts := make(map[[2]int32]int64)
	for i := range t.Records {
		r := &t.Records[i]
		counts[[2]int32{r.Src, r.Dst}] += int64(r.Size)
	}
	return counts
}

// ReadFile parses and validates the trace at path.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return Decode(path, data)
}

// Decode parses and validates a trace held in memory. Errors name the
// trace the way ReadFile names its path, so a caller that reads the
// bytes itself (to key a memo on them, say) reports the same errors.
func Decode(name string, data []byte) (*Trace, error) {
	t, err := Parse(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", name, unprefix(err))
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: %s: %w", name, unprefix(err))
	}
	return t, nil
}

// WriteFile writes t to path in the version-1 format.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := Write(f, t); err != nil {
		f.Close()
		return fmt.Errorf("trace: %s: %w", path, unprefix(err))
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %s: %w", path, err)
	}
	return nil
}

// unprefix strips the package's own "trace: " error prefix so wrapped
// errors carry it once.
func unprefix(err error) error {
	if s, ok := strings.CutPrefix(err.Error(), "trace: "); ok {
		return fmt.Errorf("%s", s)
	}
	return err
}
