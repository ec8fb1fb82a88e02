package sim

// Trace memo tests: the "trace:<path>" scheme parses each distinct
// file content once, keeps per-name identities over the shared trace,
// re-parses rewritten files, never retains failures, stays within its
// bounds, and is safe for concurrent resolution (run under -race).

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"sparsehamming/internal/trace"
)

// traceTags numbers uniqueTag's results within the process.
var traceTags atomic.Int64

// uniqueTag returns a generator tag no other call returns, so a trace
// carrying it holds bytes the process-wide memo cannot already hold
// (also under -count).
func uniqueTag(t *testing.T) string {
	return fmt.Sprintf("%s-%d", t.Name(), traceTags.Add(1))
}

// writeUniqueTrace writes a small 2x4 trace whose generator line is
// tag.
func writeUniqueTrace(t *testing.T, path, tag string) *trace.Trace {
	t.Helper()
	tr := genTrace(t, "bursty", 2, 4, 300, 0.2)
	tr.Meta.Generator = tag
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return tr
}

// memoDelta returns the trace parses and memo hits since before.
func memoDelta(before CounterSnapshot) (parses, hits int64) {
	c := Counters()
	return c.TraceParses - before.TraceParses, c.TraceMemoHits - before.TraceMemoHits
}

func TestTraceMemoSameBytesTwoPaths(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.trace"), filepath.Join(dir, "b.trace")
	tag := uniqueTag(t)
	writeUniqueTrace(t, a, tag)
	writeUniqueTrace(t, b, tag)
	before := Counters()
	pa, err := PatternByName("trace:"+a, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := PatternByName("trace:"+b, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if parses, hits := memoDelta(before); parses != 1 || hits != 1 {
		t.Errorf("parses, hits = %d, %d; want 1, 1", parses, hits)
	}
	if pa.Name() != "trace:"+a || pb.Name() != "trace:"+b {
		t.Errorf("names %q, %q; want the requested ones", pa.Name(), pb.Name())
	}
	if pa.(*Replay).Trace() != pb.(*Replay).Trace() {
		t.Errorf("equal contents resolved to two traces")
	}
}

func TestTraceMemoRewriteReparses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.trace")
	writeUniqueTrace(t, path, uniqueTag(t))
	before := Counters()
	if _, err := PatternByName("trace:"+path, 2, 4); err != nil {
		t.Fatal(err)
	}
	want := writeUniqueTrace(t, path, uniqueTag(t))
	p, err := PatternByName("trace:"+path, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if parses, _ := memoDelta(before); parses != 2 {
		t.Errorf("parses = %d, want 2", parses)
	}
	if g := p.(*Replay).Trace().Meta.Generator; g != want.Meta.Generator {
		t.Errorf("rewritten file resolved to generator %q, want %q", g, want.Meta.Generator)
	}
}

func TestTraceMemoHitChecksGrid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.trace")
	writeUniqueTrace(t, path, uniqueTag(t))
	before := Counters()
	if _, err := PatternByName("trace:"+path, 2, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := PatternByName("trace:"+path, 4, 4); err == nil {
		t.Fatalf("memo hit accepted a 2x4 trace on a 4x4 grid")
	}
	if parses, hits := memoDelta(before); parses != 1 || hits != 1 {
		t.Errorf("parses, hits = %d, %d; want 1, 1", parses, hits)
	}
}

func TestTraceMemoErrorsNotRetained(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("#shtrace v1\n#grid 2 4\n0 1 1 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTraceMemo(traceMemoCap, traceMemoRecords)
	before := Counters()
	for i := 0; i < 2; i++ {
		if _, err := m.resolve(path); err == nil {
			t.Fatalf("call %d accepted self-traffic", i)
		}
	}
	if parses, hits := memoDelta(before); parses != 2 || hits != 0 {
		t.Errorf("parses, hits = %d, %d; want 2, 0", parses, hits)
	}
	if len(m.entries) != 0 || m.records != 0 {
		t.Errorf("memo retained a failure: %d entries, %d records", len(m.entries), m.records)
	}
	if _, err := PatternByName("trace:"+path, 2, 4); err == nil {
		t.Errorf("scheme accepted self-traffic")
	}
	if _, err := PatternByName("trace:"+path, 2, 4); err == nil {
		t.Errorf("scheme accepted self-traffic on the second call")
	}
}

func TestTraceMemoBound(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, records int) string {
		tr := &trace.Trace{Meta: trace.Meta{Rows: 2, Cols: 4, Generator: name}}
		for i := 0; i < records; i++ {
			tr.Records = append(tr.Records, trace.Record{Cycle: int64(i), Src: 0, Dst: 1, Size: 1})
		}
		path := filepath.Join(dir, name)
		if err := trace.WriteFile(path, tr); err != nil {
			t.Fatal(err)
		}
		return path
	}
	m := newTraceMemo(2, 100)
	check := func(step string) {
		t.Helper()
		if len(m.entries) > m.maxEntries || m.records > m.maxRecords {
			t.Fatalf("%s: memo holds %d entries and %d records, bounds are %d and %d",
				step, len(m.entries), m.records, m.maxEntries, m.maxRecords)
		}
	}
	for i, name := range []string{"a", "b", "c", "d"} {
		if _, err := m.resolve(write(name, 10+i)); err != nil {
			t.Fatal(err)
		}
		check(name)
	}
	if _, err := m.resolve(write("e", 60)); err != nil {
		t.Fatal(err)
	}
	check("e")
	if _, err := m.resolve(write("f", 60)); err != nil {
		t.Fatal(err)
	}
	check("f")
	if len(m.entries) != 1 || m.records != 60 {
		t.Errorf("after the record bound: %d entries, %d records; want 1, 60", len(m.entries), m.records)
	}
	big, err := m.resolve(write("g", 150))
	if err != nil {
		t.Fatal(err)
	}
	check("g")
	if len(big.Records) != 150 {
		t.Errorf("oversized trace resolved to %d records, want 150", len(big.Records))
	}
}

func TestTraceMemoConcurrent(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, 3)
	for i := range paths {
		paths[i] = filepath.Join(dir, string(rune('a'+i))+".trace")
		writeUniqueTrace(t, paths[i], uniqueTag(t))
	}
	m := newTraceMemo(traceMemoCap, traceMemoRecords)
	before := Counters()
	const workers = 8
	got := make([][]*trace.Trace, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range paths {
				tr, err := m.resolve(paths[(i+w)%len(paths)])
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], tr)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if parses, hits := memoDelta(before); parses != int64(len(paths)) || hits != int64(workers*len(paths)-len(paths)) {
		t.Errorf("parses, hits = %d, %d; want %d, %d", parses, hits, len(paths), workers*len(paths)-len(paths))
	}
	for w := range got {
		for i, tr := range got[w] {
			if want := got[0][(i+w)%len(paths)]; tr != want {
				t.Errorf("worker %d path %d resolved to another trace", w, i)
			}
		}
	}
}
