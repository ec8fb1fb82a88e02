package exp

import "sync/atomic"

// runnerStats is the Runner's cumulative accounting, updated with
// plain atomics at batch and evaluation boundaries so sampling it
// never contends with the worker pool.
type runnerStats struct {
	batches  atomic.Int64
	jobs     atomic.Int64
	computed atomic.Int64
	cached   atomic.Int64
	shared   atomic.Int64
	failed   atomic.Int64

	busyNanos atomic.Int64 // summed evaluation time across workers
	panics    atomic.Int64 // evaluations that panicked

	inFlight atomic.Int64 // evaluation slots currently held
	waiting  atomic.Int64 // goroutines blocked waiting for a slot
}

// RunnerStats is a point-in-time snapshot of a Runner's cumulative
// counters and instantaneous gauges (see Runner.Stats).
type RunnerStats struct {
	// Batches counts completed Run/RunContext/RunObserved calls.
	Batches int64
	// Jobs counts jobs requested across all batches (before dedup).
	Jobs int64
	// Computed, Cached, Shared, and Failed partition the unique jobs
	// of all completed batches by how they were answered (matching the
	// per-batch Report fields).
	Computed int64
	Cached   int64
	Shared   int64
	Failed   int64

	// BusyNanos sums evaluation wall-time across workers, in
	// nanoseconds — divide by elapsed process time times Workers for
	// pool utilization.
	BusyNanos int64

	// Panics counts evaluations whose Eval panicked; each failed only
	// its own job (see Runner.Eval).
	Panics int64

	// InFlight is the number of evaluation slots currently held
	// (including slots borrowed through TryAcquire); Waiting is the
	// number of goroutines currently blocked waiting for a slot; both
	// are instantaneous. Workers is the effective slot-pool size.
	InFlight int64
	Waiting  int64
	Workers  int
}

// Stats returns a snapshot of the runner's cumulative counters and
// instantaneous gauges. Each field is individually atomic; the
// snapshot as a whole is not a consistent cut, which is fine for
// scraping.
func (r *Runner) Stats() RunnerStats {
	return RunnerStats{
		Batches:   r.stats.batches.Load(),
		Jobs:      r.stats.jobs.Load(),
		Computed:  r.stats.computed.Load(),
		Cached:    r.stats.cached.Load(),
		Shared:    r.stats.shared.Load(),
		Failed:    r.stats.failed.Load(),
		BusyNanos: r.stats.busyNanos.Load(),
		Panics:    r.stats.panics.Load(),
		InFlight:  r.stats.inFlight.Load(),
		Waiting:   r.stats.waiting.Load(),
		Workers:   r.effectiveWorkers(),
	}
}
