package exp

// Tests for the concurrent-batch features behind the campaign
// service: context cancellation, the shared evaluation-slot pool,
// in-flight job sharing across overlapping Run calls, and per-job
// panic containment.

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedEval returns an Eval that counts invocations and blocks until
// release is closed.
func gatedEval(count *atomic.Int64, started chan<- struct{}, release <-chan struct{}) func(Job) (*Result, error) {
	return func(j Job) (*Result, error) {
		count.Add(1)
		if started != nil {
			select {
			case started <- struct{}{}:
			default:
			}
		}
		<-release
		return &Result{Topology: j.Topo, AvgHops: j.Load}, nil
	}
}

// threeJobs returns three distinct load-mode specs.
func threeJobs() []Job {
	return []Job{
		{Mode: ModeLoad, Scenario: "a", Topo: "mesh", Load: 0.1},
		{Mode: ModeLoad, Scenario: "a", Topo: "mesh", Load: 0.2},
		{Mode: ModeLoad, Scenario: "a", Topo: "mesh", Load: 0.3},
	}
}

// TestRunContextCancel pins the cancellation contract: in-progress
// evaluations finish and keep their results, undispatched jobs fail
// with the context error, and the call reports it.
func TestRunContextCancel(t *testing.T) {
	var count atomic.Int64
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	r := &Runner{Workers: 1, Eval: gatedEval(&count, started, release)}

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		results []*Result
		rep     Report
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		results, rep, err := r.RunContext(ctx, threeJobs())
		done <- outcome{results, rep, err}
	}()

	<-started // first job is in Eval; the other two are undispatched
	cancel()
	close(release)
	out := <-done

	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("RunContext error = %v, want context.Canceled", out.err)
	}
	if got := count.Load(); got != 1 {
		t.Errorf("evaluations = %d, want 1 (in-flight only)", got)
	}
	if out.results[0] == nil || out.results[1] != nil || out.results[2] != nil {
		t.Errorf("results = %v, want in-flight job kept and canceled jobs nil", out.results)
	}
	if out.rep.Computed != 1 || out.rep.Failed != 2 {
		t.Errorf("report = %+v, want Computed=1 Failed=2", out.rep)
	}
}

// TestInFlightSharing pins cross-batch dedup: a batch submitted while
// another is evaluating the same specs joins the in-flight work and
// computes nothing itself.
func TestInFlightSharing(t *testing.T) {
	var count atomic.Int64
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	r := &Runner{Workers: 4, Cache: NewCache(), Eval: gatedEval(&count, started, release)}
	jobs := threeJobs()

	type outcome struct {
		results []*Result
		rep     Report
		err     error
	}
	runA := make(chan outcome, 1)
	go func() {
		results, rep, err := r.Run(jobs)
		runA <- outcome{results, rep, err}
	}()
	<-started // A has claimed every flight and begun evaluating

	runB := make(chan outcome, 1)
	go func() {
		results, rep, err := r.Run(jobs)
		runB <- outcome{results, rep, err}
	}()
	// B needs no synchronization beyond A's claims: whether B's
	// pre-pass runs before or after A finishes, every job resolves
	// from A's flight or A's cache entry, never a second evaluation.
	time.Sleep(10 * time.Millisecond)
	close(release)
	a, b := <-runA, <-runB

	if a.err != nil || b.err != nil {
		t.Fatalf("errors: A=%v B=%v", a.err, b.err)
	}
	if got := count.Load(); got != 3 {
		t.Errorf("evaluations = %d, want 3 (no duplicate work)", got)
	}
	if a.rep.Computed != 3 {
		t.Errorf("A report = %+v, want Computed=3", a.rep)
	}
	if b.rep.Computed != 0 || b.rep.Shared+b.rep.CacheHits != 3 {
		t.Errorf("B report = %+v, want Computed=0 and Shared+CacheHits=3", b.rep)
	}
	for i := range jobs {
		if a.results[i] == nil || b.results[i] == nil || *a.results[i] != *b.results[i] {
			t.Fatalf("job %d: results differ between batches: %v vs %v", i, a.results[i], b.results[i])
		}
	}
}

// TestAbandonedFlightReclaimed pins the handover: when the batch
// owning an in-flight job is canceled, a batch waiting on that job
// reclaims and evaluates it instead of inheriting the cancellation.
func TestAbandonedFlightReclaimed(t *testing.T) {
	var count atomic.Int64
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	r := &Runner{Workers: 1, Cache: NewCache(), Eval: gatedEval(&count, started, release)}
	jobs := threeJobs()

	ctxA, cancelA := context.WithCancel(context.Background())
	type outcome struct {
		rep Report
		err error
	}
	runA := make(chan outcome, 1)
	go func() {
		_, rep, err := r.RunContext(ctxA, jobs)
		runA <- outcome{rep, err}
	}()
	<-started // A evaluates job 0; jobs 1 and 2 are undispatched

	runB := make(chan outcome, 1)
	var resultsB []*Result
	go func() {
		results, rep, err := r.Run(jobs)
		resultsB = results
		runB <- outcome{rep, err}
	}()
	time.Sleep(10 * time.Millisecond) // let B join A's flights
	cancelA()                         // A abandons jobs 1 and 2
	close(release)
	a, b := <-runA, <-runB

	if !errors.Is(a.err, context.Canceled) {
		t.Fatalf("A error = %v, want context.Canceled", a.err)
	}
	if b.err != nil {
		t.Fatalf("B error = %v, want nil (another batch's cancel must not fail B)", b.err)
	}
	if b.rep.Failed != 0 || b.rep.Computed+b.rep.Shared+b.rep.CacheHits != 3 {
		t.Errorf("B report = %+v, want Failed=0 and all three jobs resolved", b.rep)
	}
	for i, res := range resultsB {
		if res == nil {
			t.Errorf("B result %d is nil", i)
		}
	}
	if got := count.Load(); got != 3 {
		t.Errorf("evaluations = %d, want 3 (job 0 once in A, jobs 1-2 reclaimed by B)", got)
	}
}

// TestGroupCachePeel: members of a batch already in the cache are
// peeled off before evaluation, so only the rest reach Eval.
func TestGroupCachePeel(t *testing.T) {
	var evals atomic.Int64
	r := &Runner{Workers: 4, Cache: NewCache(), Eval: fakeEval(&evals)}
	jobs := threeJobs()
	if _, _, err := r.Run(jobs[:2]); err != nil {
		t.Fatal(err)
	}
	e0 := evals.Load()

	_, rep, err := r.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 2 || rep.Computed != 1 {
		t.Errorf("report = %+v, want 2 cached / 1 computed", rep)
	}
	if e := evals.Load() - e0; e != 1 {
		t.Errorf("Eval calls = %d, want 1", e)
	}
}

// TestEvalPanicContained pins per-job panic containment: one job whose
// Eval panics fails alone — with the panic value in its error, its
// stack logged, and the panic counted — while its sibling jobs and a
// concurrent batch run to completion (under the race detector in CI).
func TestEvalPanicContained(t *testing.T) {
	var logBuf syncBuffer
	r := &Runner{
		Workers: 2,
		Log:     slog.New(slog.NewTextHandler(&logBuf, nil)),
		Eval: func(j Job) (*Result, error) {
			if j.Topo == "bomb" {
				panic("flit ring overflow")
			}
			return fakeEval(nil)(j)
		},
	}
	batchA := append(threeJobs(), Job{Mode: ModeLoad, Scenario: "a", Topo: "bomb", Load: 0.5})
	batchB := []Job{
		{Mode: ModeLoad, Scenario: "b", Topo: "torus", Load: 0.1},
		{Mode: ModeLoad, Scenario: "b", Topo: "torus", Load: 0.2},
	}

	type outcome struct {
		results []*Result
		rep     Report
		err     error
	}
	outB := make(chan outcome, 1)
	go func() {
		results, rep, err := r.Run(batchB)
		outB <- outcome{results, rep, err}
	}()
	gotA, repA, errA := r.Run(batchA)
	b := <-outB

	if errA == nil || !strings.Contains(errA.Error(), "flit ring overflow") {
		t.Fatalf("batch A error = %v, want the panic value", errA)
	}
	if repA.Failed != 1 || repA.Computed != 3 {
		t.Errorf("batch A report = %+v, want 1 failed / 3 computed", repA)
	}
	for i, res := range gotA[:3] {
		if res == nil {
			t.Errorf("sibling job %d has no result", i)
		}
	}
	if gotA[3] != nil {
		t.Errorf("panicking job produced a result: %+v", gotA[3])
	}
	if b.err != nil || b.rep.Computed != len(batchB) {
		t.Errorf("concurrent batch: err=%v report=%+v, want all computed", b.err, b.rep)
	}
	if p := r.Stats().Panics; p != 1 {
		t.Errorf("panics counted = %d, want 1", p)
	}
	if log := logBuf.String(); !strings.Contains(log, "job panicked") || !strings.Contains(log, "goroutine") {
		t.Errorf("log lacks the panic and its stack:\n%s", log)
	}
}

// syncBuffer is a bytes.Buffer safe for the runner's concurrent log
// writes.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
