package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := NewSpan("job")
	sat := root.Child("saturation")
	p := sat.Child("probe")
	p.SetAttr("rate", 0.5)
	p.End()
	sat.End()
	root.End()

	if len(root.Children) != 1 || root.Children[0] != sat {
		t.Fatalf("root children = %v", root.Children)
	}
	if got := root.Find("probe"); got != p {
		t.Fatalf("Find(probe) = %v", got)
	}
	if p.Attrs["rate"] != 0.5 {
		t.Errorf("attr = %v", p.Attrs["rate"])
	}
	if p.StartMs < sat.StartMs || sat.StartMs < root.StartMs {
		t.Errorf("starts not monotone: %v %v %v", root.StartMs, sat.StartMs, p.StartMs)
	}

	var n int
	root.Walk(func(*Span) { n++ })
	if n != 3 {
		t.Errorf("Walk visited %d spans, want 3", n)
	}

	// The tree must marshal to JSON (the ?debug=trace wire shape).
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["name"] != "job" {
		t.Errorf("marshaled name = %v", m["name"])
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatal("nil span Child should be nil")
	}
	c.End()
	c.SetAttr("k", 1)
	s.Walk(func(*Span) { t.Fatal("nil Walk should not visit") })
	if s.Duration() != 0 {
		t.Fatal("nil Duration should be 0")
	}
}

func TestSpanEndOnceAndDuration(t *testing.T) {
	s := NewSpan("x")
	time.Sleep(2 * time.Millisecond)
	s.End()
	d := s.DurMs
	if d <= 0 {
		t.Fatalf("DurMs = %v, want > 0", d)
	}
	s.End()
	if s.DurMs != d {
		t.Errorf("second End changed DurMs: %v -> %v", d, s.DurMs)
	}
	if s.Duration() <= 0 {
		t.Errorf("Duration = %v", s.Duration())
	}
}

func TestChildConcurrent(t *testing.T) {
	// Concurrent Child calls on one parent, each goroutine then
	// building and ending its own subtree: run under -race, this pins
	// the Span doc's promise that concurrent children are safe.
	root := NewSpan("job")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := root.Child(fmt.Sprintf("probe-%d", i))
			c.SetAttr("rate", i)
			c.Child("measure").End()
			c.End()
		}(i)
	}
	wg.Wait()
	root.End()
	if len(root.Children) != 16 {
		t.Fatalf("attached %d children, want 16", len(root.Children))
	}
	for i := 0; i < 16; i++ {
		c := root.Find(fmt.Sprintf("probe-%d", i))
		if c == nil || c.Find("measure") == nil || c.DurMs < 0 {
			t.Errorf("probe-%d missing or incomplete", i)
		}
	}
}

func TestTraceStoreEviction(t *testing.T) {
	ts := NewTraceStore(2)
	ts.Put("a", NewSpan("a"))
	ts.Put("b", NewSpan("b"))
	ts.Put("a", NewSpan("a2")) // replace, no new slot
	if ts.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ts.Len())
	}
	if got := ts.Get("a"); got == nil || got.Name != "a2" {
		t.Errorf("Get(a) = %v, want replaced trace", got)
	}
	ts.Put("c", NewSpan("c"))
	if ts.Len() != 2 {
		t.Fatalf("Len after evict = %d, want 2", ts.Len())
	}
	if ts.Get("a") != nil {
		t.Error("a (oldest slot) should have been evicted")
	}
	if ts.Get("b") == nil || ts.Get("c") == nil {
		t.Error("b and c should survive eviction")
	}

	var nilStore *TraceStore
	nilStore.Put("x", NewSpan("x"))
	if nilStore.Get("x") != nil || nilStore.Len() != 0 {
		t.Error("nil store should discard")
	}
}

func TestHubDefaults(t *testing.T) {
	h := NewHub()
	if h.Metrics == nil || h.Traces == nil || h.Log == nil {
		t.Fatal("NewHub left a backend nil")
	}
	h.Log.Info("discarded") // must not panic
	if h.SlowJobThreshold() != DefaultSlowJob {
		t.Errorf("threshold = %v", h.SlowJobThreshold())
	}
	var nilHub *Hub
	if nilHub.SlowJobThreshold() != DefaultSlowJob {
		t.Error("nil hub threshold")
	}
	nilHub.Logger().Info("discarded")
}
