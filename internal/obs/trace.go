package obs

import (
	"sync"
	"time"
)

// DefaultTraceCap is how many job traces a NewHub trace store keeps
// before evicting the oldest.
const DefaultTraceCap = 256

// Span is one timed region of work in a job's execution trace: the
// job itself, its saturation search, each bisection probe, a probe's
// warmup/measure/drain phases. Spans form a tree and marshal directly
// to the JSON shape the ?debug=trace results field exposes.
//
// All methods are safe on a nil *Span and do nothing, so
// instrumentation sites never need nil checks — an untraced execution
// threads nil spans everywhere at no cost beyond the nil test.
//
// Concurrency: a span's direct mutators (End, SetAttr, Child) are
// mutex-guarded, so concurrent children of one parent are safe.
type Span struct {
	// Name identifies the region ("job", "saturation", "probe",
	// "warmup", ...).
	Name string `json:"name"`
	// StartMs is the span's start in milliseconds relative to its
	// tree's root.
	StartMs float64 `json:"start_ms"`
	// DurMs is the span's duration in milliseconds; 0 until End.
	DurMs float64 `json:"dur_ms"`
	// Attrs carries small scalar annotations (injection rate, verdict,
	// cycle counts). Nil when empty.
	Attrs map[string]any `json:"attrs,omitempty"`
	// Children are the nested spans, in the order they were attached.
	Children []*Span `json:"children,omitempty"`

	mu    sync.Mutex
	epoch time.Time // the tree root's start instant
	start time.Time
}

// NewSpan starts a root span. Its epoch (the zero of all StartMs in
// the tree) is its own start time.
func NewSpan(name string) *Span {
	now := time.Now()
	return &Span{Name: name, epoch: now, start: now}
}

// Child starts a nested span and attaches it. Returns nil on a nil
// receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	c := &Span{
		Name:    name,
		StartMs: float64(now.Sub(s.epoch)) / float64(time.Millisecond),
		epoch:   s.epoch,
		start:   now,
	}
	s.mu.Lock()
	s.Children = append(s.Children, c)
	s.mu.Unlock()
	return c
}

// End fixes the span's duration. Safe to call more than once (the
// first call wins) and on a nil receiver.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.DurMs == 0 {
		s.DurMs = float64(now.Sub(s.start)) / float64(time.Millisecond)
	}
	s.mu.Unlock()
}

// SetAttr annotates the span. No-op on a nil receiver.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]any)
	}
	s.Attrs[key] = value
	s.mu.Unlock()
}

// Duration returns the span's duration (0 until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.DurMs * float64(time.Millisecond))
}

// Walk visits the span and every descendant depth-first. No-op on a
// nil receiver.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	s.mu.Lock()
	kids := append([]*Span(nil), s.Children...)
	s.mu.Unlock()
	for _, c := range kids {
		c.Walk(fn)
	}
}

// Find returns the first descendant (or the span itself) with the
// given name, depth-first; nil when absent.
func (s *Span) Find(name string) *Span {
	var hit *Span
	s.Walk(func(sp *Span) {
		if hit == nil && sp.Name == name {
			hit = sp
		}
	})
	return hit
}

// TraceStore keeps the most recent span trees keyed by job content
// key, evicting oldest-first past its capacity. Safe for concurrent
// use; the zero value and a nil store both discard everything.
type TraceStore struct {
	mu    sync.Mutex
	cap   int
	byKey map[string]*Span
	order []string
}

// NewTraceStore returns a store keeping at most capacity traces
// (minimum 1).
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceStore{cap: capacity, byKey: make(map[string]*Span)}
}

// Put stores (or replaces) the trace for a job key. No-op on a nil or
// zero-value store.
func (t *TraceStore) Put(key string, s *Span) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byKey == nil || t.cap < 1 {
		return
	}
	if _, ok := t.byKey[key]; !ok {
		t.order = append(t.order, key)
		for len(t.order) > t.cap {
			delete(t.byKey, t.order[0])
			t.order = t.order[1:]
		}
	}
	t.byKey[key] = s
}

// Get returns the stored trace for a job key, or nil.
func (t *TraceStore) Get(key string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[key]
}

// Len reports how many traces are stored.
func (t *TraceStore) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byKey)
}
