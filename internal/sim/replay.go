package sim

// Trace replay: the simulator's second input modality. A Replay wraps
// a validated workload trace (package trace) and plugs into the
// engine through the ordinary Pattern slot — but instead of drawing
// destinations per cycle, the engine precomputes the trace's scaled
// injection schedule at instantiation and generateReplay (engine.go)
// drains it cursor-style. Everything layered over the engine —
// warmup/measure/drain windows, adaptive control, replicas of a
// shared Shape, the campaign cache — composes with replayed traffic
// unchanged, because a replica with a Replay pattern runs the
// identical per-cycle code.
//
// Load scaling: Config.InjectionRate doubles as the replay's time
// dilation. Scale 1 (or the 0 default) replays the trace at its
// recorded intensity; a scale s in (0, 1) stretches every record
// cycle to cycle/s, thinning the offered load to s times the recorded
// one — which is what lets a load sweep reuse its loads axis for
// traces. Stats.OfferedRate reports the scale for replayed runs.
//
// The saturation searches refuse Replay patterns: they probe by
// varying the Bernoulli injection rate, which has no meaning for a
// recorded workload. Sweep traces through LoadLatencyCurve (mode
// "load" in campaign specs) instead.

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"

	"sparsehamming/internal/trace"
)

// Replay is a Pattern that replays a recorded workload trace. Build
// with NewReplay (or via the "trace:<path>" pattern names of
// PatternByName); the wrapped trace must stay unmodified while any
// simulation uses it. Replays resolved by name share one trace per
// file content (see the "trace" scheme below), so their traces must
// never be modified.
type Replay struct {
	name string
	tr   *trace.Trace
}

// NewReplay wraps a validated trace as a replayable pattern. The name
// is the pattern's identity in job specs and cache keys (the pattern
// registry uses "trace:<path>").
func NewReplay(name string, tr *trace.Trace) (*Replay, error) {
	if tr == nil {
		return nil, fmt.Errorf("sim: NewReplay with nil trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %s: %w", name, err)
	}
	return &Replay{name: name, tr: tr}, nil
}

// Name implements Pattern.
func (r *Replay) Name() string { return r.name }

// Dest implements Pattern. The engine never calls it for a Replay —
// injections come from the trace schedule — so it always reports "no
// destination".
func (r *Replay) Dest(src int, rng *rand.Rand) int { return -1 }

// Grid returns the trace's grid shape.
func (r *Replay) Grid() (rows, cols int) { return r.tr.Meta.Rows, r.tr.Meta.Cols }

// Trace returns the wrapped trace (read-only: replays resolved by
// name share it).
func (r *Replay) Trace() *trace.Trace { return r.tr }

// replayEvent is one scheduled injection: a trace record with its
// cycle already scaled.
type replayEvent struct {
	cycle    int64
	src, dst int32
	plen     int16
}

// schedule materializes the trace's injection schedule at the given
// load scale (0 means 1: the recorded intensity), sorted by effective
// cycle. The format only requires per-source monotone cycles, so the
// global sort is what hands generateReplay a single cursor; the sort
// is stable to keep same-cycle records in trace order.
func (r *Replay) schedule(scale float64) []replayEvent {
	if scale == 0 {
		scale = 1
	}
	recs := r.tr.Records
	sched := make([]replayEvent, len(recs))
	for i := range recs {
		rec := &recs[i]
		cycle := rec.Cycle
		if scale != 1 {
			cycle = int64(float64(cycle) / scale)
		}
		sched[i] = replayEvent{cycle: cycle, src: rec.Src, dst: rec.Dst, plen: int16(rec.Size)}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].cycle < sched[j].cycle })
	return sched
}

// init registers the "trace" pattern-name scheme: "trace:<path>"
// resolves the trace file at path (relative to the process working
// directory, like spec files themselves) through traces, a
// process-wide memo keyed on the SHA-256 of the file's bytes. Spec
// validation, every load point of a campaign, and the replay paths of
// the CLIs and the service all resolve the same few files again and
// again; the memo parses and validates each distinct content once and
// hands every later resolution a new Replay over the shared,
// read-only trace. The file is still read on every resolution, so a
// trace rewritten in place is parsed anew, and errors are never
// memoized: a missing or corrupt file fails on every call. The grid
// check against the caller's arch runs per call.
func init() {
	RegisterPatternScheme("trace", func(name, path string, rows, cols int) (Pattern, error) {
		if path == "" {
			return nil, fmt.Errorf("sim: pattern %q has no trace path", name)
		}
		tr, err := traces.resolve(path)
		if err != nil {
			return nil, fmt.Errorf("sim: pattern %q: %w", name, err)
		}
		if tr.Meta.Rows != rows || tr.Meta.Cols != cols {
			return nil, fmt.Errorf("sim: pattern %q: trace grid %dx%d does not match the %dx%d arch grid",
				name, tr.Meta.Rows, tr.Meta.Cols, rows, cols)
		}
		return &Replay{name: name, tr: tr}, nil
	})
}

// traceMemoCap bounds the trace memo's entries and traceMemoRecords
// the records they retain in total (24 bytes each, so about 24 MB); a
// full memo starts over. A campaign service replays a handful of
// traces at a time, so the memo keeps those, not every file it has
// seen.
const (
	traceMemoCap     = 16
	traceMemoRecords = 1 << 20
)

// traces is the memo behind the "trace" pattern scheme.
var traces = newTraceMemo(traceMemoCap, traceMemoRecords)

// traceMemo is a bounded memo of parsed, validated traces keyed on the
// SHA-256 of their file bytes. Concurrent resolutions of one content
// wait for a single parse.
type traceMemo struct {
	maxEntries, maxRecords int

	mu      sync.Mutex
	entries map[[sha256.Size]byte]*traceEntry
	records int // records of the completed entries, guarded by mu
}

// traceEntry is one memoized content: done closes once tr (or, for a
// failed parse, nil) is set.
type traceEntry struct {
	done chan struct{}
	tr   *trace.Trace
}

// newTraceMemo returns an empty memo with the given bounds.
func newTraceMemo(maxEntries, maxRecords int) *traceMemo {
	return &traceMemo{maxEntries: maxEntries, maxRecords: maxRecords,
		entries: map[[sha256.Size]byte]*traceEntry{}}
}

// resolve reads the file at path and returns its parsed, validated
// trace, parsing only contents the memo does not hold. The returned
// trace is shared and must not be modified.
func (m *traceMemo) resolve(path string) (*trace.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	key := sha256.Sum256(data)
	m.mu.Lock()
	e, hit := m.entries[key]
	if !hit {
		if len(m.entries) >= m.maxEntries {
			m.resetLocked()
		}
		e = &traceEntry{done: make(chan struct{})}
		m.entries[key] = e
	}
	m.mu.Unlock()
	if hit {
		<-e.done
		if e.tr != nil {
			counters.traceMemoHits.Add(1)
			return e.tr, nil
		}
		// The parse this call waited for failed: fail with this
		// path's own error.
		counters.traceParses.Add(1)
		return trace.Decode(path, data)
	}

	defer close(e.done)
	counters.traceParses.Add(1)
	tr, err := trace.Decode(path, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	e.tr = tr // nil on failure
	// Retain a success unless a reset dropped the entry while it
	// parsed; a trace above the record bound on its own is served
	// unretained.
	if m.entries[key] == e {
		delete(m.entries, key)
		if err == nil && len(tr.Records) <= m.maxRecords {
			if m.records+len(tr.Records) > m.maxRecords {
				m.resetLocked()
			}
			m.entries[key] = e
			m.records += len(tr.Records)
		}
	}
	return tr, err
}

// resetLocked empties the memo. Resolutions holding a dropped entry
// finish unaffected; later ones parse anew.
func (m *traceMemo) resetLocked() {
	clear(m.entries)
	m.records = 0
}

// captureTracer records the injection schedule of a running
// simulation: one trace record per packet, at the cycle its head flit
// entered the network.
type captureTracer struct {
	plen int
	recs []trace.Record
}

// Trace implements Tracer.
func (c *captureTracer) Trace(ev Event) {
	if ev.Kind == EvInject && ev.Seq == 0 {
		c.recs = append(c.recs, trace.Record{Cycle: ev.Cycle, Src: ev.Node, Dst: ev.Peer, Size: c.plen})
	}
}

// CaptureTrace runs the configuration and records every injected
// packet as a trace record — the capture mode behind `shgen
// -capture`, turning any registered synthetic pattern into a
// replayable trace. The returned trace carries the run's grid,
// horizon (one past the last injection), and provenance; records are
// in injection order (globally sorted by cycle), and replaying the
// result reproduces the run's per-(src,dst) flit counts exactly.
// Config.Tracer must be unset (capture claims the event stream), and
// the pattern must be synthetic — capturing a Replay is the identity.
func CaptureTrace(cfg Config) (*trace.Trace, Stats, error) {
	if cfg.Tracer != nil {
		return nil, Stats{}, fmt.Errorf("sim: CaptureTrace needs the Tracer slot (Config.Tracer must be nil)")
	}
	if _, ok := cfg.Pattern.(*Replay); ok {
		return nil, Stats{}, fmt.Errorf("sim: refusing to capture a trace from a trace replay")
	}
	cfg.Defaults()
	ct := &captureTracer{plen: cfg.PacketLen}
	cfg.Tracer = ct
	s, err := New(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	st := s.Run()
	tr := &trace.Trace{
		Meta: trace.Meta{
			Rows: cfg.Topo.Rows,
			Cols: cfg.Topo.Cols,
			Generator: fmt.Sprintf("capture pattern=%s topo=%s seed=%d rate=%g plen=%d warmup=%d measure=%d",
				cfg.Pattern.Name(), cfg.Topo.Kind, cfg.Seed, cfg.InjectionRate, cfg.PacketLen,
				cfg.Warmup, cfg.Measure),
		},
		Records: ct.recs,
	}
	if len(ct.recs) > 0 {
		tr.Meta.Horizon = tr.EffectiveHorizon()
	}
	if err := tr.Validate(); err != nil {
		return nil, st, fmt.Errorf("sim: captured trace invalid: %w", err)
	}
	return tr, st, nil
}
