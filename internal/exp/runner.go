package exp

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Runner executes job batches on a worker pool with optional result
// caching and progress reporting. The zero value plus an Eval
// function is ready to use.
//
// A Runner may execute several batches concurrently (the campaign
// service runs every client submission through one shared Runner):
// total evaluation concurrency across all in-flight Run/RunContext
// calls is bounded by one shared Workers-sized slot pool, and a job
// spec being evaluated by one batch is never evaluated again by an
// overlapping batch — late arrivals wait for the in-flight evaluation
// and share its result (ProgressEvent.Shared, Report.Shared).
type Runner struct {
	// Eval computes one job. It must be safe for concurrent calls and
	// deterministic in the job spec (same Job, same Result) — every
	// evaluator in this repository seeds its random streams from the
	// job, so this holds by construction. A panicking Eval fails only
	// its own job: the runner recovers it into that job's error, logs
	// the stack, and counts it in RunnerStats.Panics.
	Eval func(Job) (*Result, error)

	// Workers bounds the pool size; values <= 0 mean GOMAXPROCS. The
	// bound is shared across concurrent Run calls (the first call
	// fixes it).
	Workers int

	// Cache, when non-nil, short-circuits jobs whose key is already
	// present and stores freshly computed results.
	Cache *Cache

	// Progress, when non-nil, receives one event per completed unique
	// job. Events of one Run call are delivered serially; concurrent
	// Run calls deliver their events concurrently (guard accordingly,
	// or use RunObserved for a per-call observer).
	Progress func(ProgressEvent)

	// OnReport, when non-nil, receives the aggregate report after
	// every Run call (including failed ones) — CLIs hook it to print
	// campaign summaries without threading the report through the
	// intermediate campaign layers.
	OnReport func(Report)

	// Log, when non-nil, receives structured events for the
	// rarely-exercised paths (abandoned flights, reclaims after another
	// batch's cancellation, recovered panics). Nil stays silent.
	Log *slog.Logger

	// semOnce lazily sizes sem, the shared evaluation-slot pool that
	// bounds concurrency across overlapping Run calls.
	semOnce sync.Once
	sem     chan struct{}

	// stats holds the cumulative counters and gauges behind Stats().
	stats runnerStats

	// flight tracks job evaluations currently in progress across all
	// Run calls, keyed by content key, so overlapping batches never
	// duplicate work the cache cannot yet answer.
	flightMu sync.Mutex
	flight   map[string]*flight
}

// flight is one in-progress evaluation; done is closed once res/err
// are set.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// ProgressEvent describes one completed unique job.
type ProgressEvent struct {
	Done, Total int // unique jobs completed / in the batch
	Job         Job
	Cached      bool
	Shared      bool // answered by another batch's in-flight evaluation
	Err         error
	Elapsed     time.Duration // evaluation time (0 when cached or shared)
}

// Report aggregates one Run call.
type Report struct {
	Jobs      int // jobs requested
	Unique    int // distinct specs after dedup
	CacheHits int // unique jobs answered from the cache
	Shared    int // unique jobs answered by another batch's in-flight evaluation
	Computed  int // unique jobs evaluated
	Failed    int // unique jobs whose evaluation errored
	Wall      time.Duration
	Compute   time.Duration // evaluation time summed across workers
}

// String renders the report for campaign footers.
func (r Report) String() string {
	s := fmt.Sprintf("%d jobs (%d unique): %d computed, %d cached",
		r.Jobs, r.Unique, r.Computed, r.CacheHits)
	if r.Shared > 0 {
		s += fmt.Sprintf(", %d shared in-flight", r.Shared)
	}
	if r.Failed > 0 {
		s += fmt.Sprintf(", %d failed", r.Failed)
	}
	s += fmt.Sprintf("; wall %s", r.Wall.Round(time.Millisecond))
	if r.Computed > 0 {
		s += fmt.Sprintf(", compute %s", r.Compute.Round(time.Millisecond))
	}
	return s
}

// unit is one unique spec in a batch, shared by all duplicate indices.
type unit struct {
	job    Job
	flight *flight
	res    *Result
	err    error
	cached bool
	shared bool
	dur    time.Duration
}

// Run executes the batch and returns one result per job, in input
// order. Duplicate specs are evaluated once and share one Result.
// When evaluations fail, Run still completes the rest of the batch,
// returns every successful result, and reports the error of the
// lowest-indexed failing job (so a parallel run fails identically to
// a serial one).
func (r *Runner) Run(jobs []Job) ([]*Result, Report, error) {
	return r.RunContext(context.Background(), jobs)
}

// RunContext is Run with cancellation: when ctx is canceled, no new
// evaluations start, in-progress ones finish (the simulator is not
// interruptible mid-run), and the call returns every result it
// already has plus the context's error. Jobs another batch is waiting
// on are handed back to that batch for evaluation rather than failed.
func (r *Runner) RunContext(ctx context.Context, jobs []Job) ([]*Result, Report, error) {
	return r.run(ctx, jobs, r.Progress)
}

// RunObserved is RunContext with a per-call progress observer:
// observe receives this call's events (serially, like Progress)
// after any runner-level Progress hook. The campaign service uses it
// to route one shared Runner's events to the right campaign.
func (r *Runner) RunObserved(ctx context.Context, jobs []Job, observe func(ProgressEvent)) ([]*Result, Report, error) {
	progress := r.Progress
	if progress == nil {
		progress = observe
	} else if observe != nil {
		global := progress
		progress = func(ev ProgressEvent) {
			global(ev)
			observe(ev)
		}
	}
	return r.run(ctx, jobs, progress)
}

// effectiveWorkers resolves the Workers default.
func (r *Runner) effectiveWorkers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// acquire takes one shared evaluation slot, sizing the pool on first
// use.
func (r *Runner) acquire() {
	r.semOnce.Do(func() { r.sem = make(chan struct{}, r.effectiveWorkers()) })
	r.stats.waiting.Add(1)
	r.sem <- struct{}{}
	r.stats.waiting.Add(-1)
	r.stats.inFlight.Add(1)
}

// release returns one shared evaluation slot.
func (r *Runner) release() {
	r.stats.inFlight.Add(-1)
	<-r.sem
}

// claim registers an in-flight evaluation for key. It returns the
// flight and whether the caller owns it (owns == false means another
// batch is already evaluating the key; wait on flight.done).
func (r *Runner) claim(key string) (*flight, bool) {
	r.flightMu.Lock()
	defer r.flightMu.Unlock()
	if r.flight == nil {
		r.flight = map[string]*flight{}
	}
	if f, ok := r.flight[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	r.flight[key] = f
	return f, true
}

// resolve completes an owned flight: publishes the outcome and wakes
// every waiter. Callers must store to the cache first, so batches
// that miss the flight window hit the cache instead.
func (r *Runner) resolve(key string, f *flight, res *Result, err error) {
	r.flightMu.Lock()
	delete(r.flight, key)
	r.flightMu.Unlock()
	f.res, f.err = res, err
	close(f.done)
}

// evalUnit evaluates one owned unit under the shared slot pool,
// stores the result, and resolves the unit's flight. The cache is
// re-checked first: between this batch's cache pre-pass and its
// claim, another batch may have finished the job and retired its
// flight, and re-simulating a cached job would break the dedup
// contract.
func (r *Runner) evalUnit(u *unit) {
	if r.Cache != nil {
		if res, ok := r.Cache.peek(u.job.Key()); ok {
			u.res, u.cached = res, true
			r.resolve(u.job.Key(), u.flight, res, nil)
			return
		}
	}
	r.acquire()
	t0 := time.Now()
	u.res, u.err = r.callEval(u.job)
	u.dur = time.Since(t0)
	r.stats.busyNanos.Add(int64(u.dur))
	r.release()
	if u.err == nil && r.Cache != nil {
		r.Cache.Put(u.job, u.res)
	}
	r.resolve(u.job.Key(), u.flight, u.res, u.err)
}

// callEval calls Eval, recovering a panic into the job's error so one
// bad job cannot take down its siblings, other batches, or the process.
func (r *Runner) callEval(j Job) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.stats.panics.Add(1)
			if r.Log != nil {
				r.Log.Error("job panicked", "job", j.String(), "panic", p, "stack", string(debug.Stack()))
			}
			res, err = nil, fmt.Errorf("exp: evaluation panicked: %v", p)
		}
	}()
	return r.Eval(j)
}

// abandon resolves an owned flight with the batch's context error so
// waiters in other batches can reclaim the key and evaluate it
// themselves instead of blocking forever.
func (r *Runner) abandon(u *unit, err error) {
	u.err = err
	if r.Log != nil {
		r.Log.Debug("flight abandoned", "job", u.job.String(), "err", err)
	}
	r.resolve(u.job.Key(), u.flight, nil, err)
}

// run is the shared implementation behind Run/RunContext/RunObserved.
func (r *Runner) run(ctx context.Context, jobs []Job, progress func(ProgressEvent)) ([]*Result, Report, error) {
	start := time.Now()
	rep := Report{Jobs: len(jobs)}
	if r.Eval == nil {
		return nil, rep, fmt.Errorf("exp: runner has no Eval function")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Deduplicate by content key, preserving first-seen order.
	byKey := map[string]*unit{}
	var order []*unit
	units := make([]*unit, len(jobs))
	for i, j := range jobs {
		k := j.Key()
		u, ok := byKey[k]
		if !ok {
			u = &unit{job: j}
			byKey[k] = u
			order = append(order, u)
		}
		units[i] = u
	}
	rep.Unique = len(order)

	// Resolve cache hits up front, then partition the remainder into
	// units this batch owns and units another in-flight batch is
	// already evaluating. Claims happen before any evaluation starts,
	// so a batch submitted while another runs joins every overlapping
	// job instead of recomputing it.
	var owned, joined []*unit
	for _, u := range order {
		if r.Cache != nil {
			if res, ok := r.Cache.Get(u.job.Key()); ok {
				u.res, u.cached = res, true
				continue
			}
		}
		f, mine := r.claim(u.job.Key())
		u.flight = f
		if mine {
			owned = append(owned, u)
		} else {
			joined = append(joined, u)
		}
	}

	var (
		mu   sync.Mutex
		done int
	)
	emit := func(u *unit) {
		mu.Lock()
		done++
		ev := ProgressEvent{
			Done: done, Total: rep.Unique,
			Job: u.job, Cached: u.cached, Shared: u.shared,
			Err: u.err, Elapsed: u.dur,
		}
		if progress != nil {
			progress(ev)
		}
		mu.Unlock()
	}
	for _, u := range order {
		if u.cached {
			emit(u)
		}
	}

	// Joined units wait for the owning batch's evaluation. If that
	// batch abandons the flight (its context was canceled), the
	// waiter reclaims the key and evaluates inline — another batch's
	// cancellation must not fail this one.
	var jwg sync.WaitGroup
	for _, u := range joined {
		jwg.Add(1)
		go func(u *unit) {
			defer jwg.Done()
			defer emit(u)
			for {
				select {
				case <-ctx.Done():
					u.err = ctx.Err()
					return
				case <-u.flight.done:
					if isContextErr(u.flight.err) {
						f, mine := r.claim(u.job.Key())
						u.flight = f
						if mine {
							if err := ctx.Err(); err != nil {
								r.abandon(u, err)
								return
							}
							if r.Log != nil {
								r.Log.Debug("flight reclaimed", "job", u.job.String())
							}
							r.evalUnit(u)
							return
						}
						continue // someone else reclaimed; wait again
					}
					u.res, u.err = u.flight.res, u.flight.err
					u.shared = u.err == nil
					return
				}
			}
		}(u)
	}

	// Owned units are evaluated by up to Workers goroutines; each
	// evaluation also holds a shared slot, so concurrent batches cannot
	// oversubscribe the machine.
	workers := r.effectiveWorkers()
	if workers > len(owned) {
		workers = len(owned)
	}
	work := make(chan *unit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range work {
				if err := ctx.Err(); err != nil {
					r.abandon(u, err)
				} else {
					r.evalUnit(u)
				}
				emit(u)
			}
		}()
	}
dispatch:
	for i, u := range owned {
		select {
		case work <- u:
		case <-ctx.Done():
			// Hand every undispatched flight back so waiters in
			// other batches can take over.
			for _, v := range owned[i:] {
				r.abandon(v, ctx.Err())
				emit(v)
			}
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	jwg.Wait()

	out := make([]*Result, len(jobs))
	var firstErr error
	for i, u := range units {
		if u.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("exp: job %d (%s): %w", i, u.job, u.err)
			}
			continue
		}
		out[i] = u.res
	}
	for _, u := range order {
		rep.Compute += u.dur
		switch {
		case u.err != nil:
			rep.Failed++
		case u.cached:
			rep.CacheHits++
		case u.shared:
			rep.Shared++
		default:
			rep.Computed++
		}
	}
	rep.Wall = time.Since(start)
	r.stats.batches.Add(1)
	r.stats.jobs.Add(int64(rep.Jobs))
	r.stats.computed.Add(int64(rep.Computed))
	r.stats.cached.Add(int64(rep.CacheHits))
	r.stats.shared.Add(int64(rep.Shared))
	r.stats.failed.Add(int64(rep.Failed))
	if r.OnReport != nil {
		r.OnReport(rep)
	}
	return out, rep, firstErr
}

// isContextErr reports whether err is a context cancellation or
// deadline error — the marker of an abandoned flight as opposed to a
// genuine evaluation failure.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
