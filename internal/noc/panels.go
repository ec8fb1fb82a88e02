package noc

// Panel statistics: attribution of campaign effort (compute time,
// cache hits, simulated work) to named job groups: the sweeps of a
// declarative campaign spec run by cmd/shrun (in the Figure 6 specs,
// one sweep per scenario panel).

import (
	"fmt"
	"time"

	"sparsehamming/internal/exp"
)

// PanelStats aggregates the campaign effort behind one panel (a spec
// sweep, such as one Figure 6 scenario): how much simulation work it
// took and how long the workers computed. Cached jobs contribute their
// simulated work figures (the result records them) but no compute
// time.
type PanelStats struct {
	// Label names the panel: the sweep label (the scenario ID in the
	// Figure 6 specs).
	Label string
	// Jobs and CacheHits count the panel's campaign jobs and how many
	// of them were answered from the result cache.
	Jobs      int
	CacheHits int
	// Compute is the evaluation time of the panel's jobs summed
	// across workers (not wall-clock: panels of one batch compute
	// concurrently).
	Compute time.Duration
	// SimCycles and SimFlitHops total the simulated router-cycles and
	// flit movements behind the panel's predictions.
	SimCycles   int64
	SimFlitHops int64
	// Probes totals the saturation probes behind the panel's
	// predictions; CyclesSaved totals the simulated cycles the
	// adaptive tier's early verdicts avoided (0 on fixed tiers).
	Probes      int
	CyclesSaved int64
}

// String renders the stats for campaign footers, e.g.
// "8 jobs (0 cached), compute 12.3s, 45.2M cycles (3.7 Mcycles/s)".
func (ps PanelStats) String() string {
	s := fmt.Sprintf("%d jobs (%d cached)", ps.Jobs, ps.CacheHits)
	if ps.Compute > 0 {
		s += fmt.Sprintf(", compute %s", ps.Compute.Round(time.Millisecond))
	}
	if ps.SimCycles > 0 {
		s += fmt.Sprintf(", %.1fM cycles", float64(ps.SimCycles)/1e6)
		if ps.Compute > 0 {
			s += fmt.Sprintf(" (%.2f Mcycles/s)", float64(ps.SimCycles)/1e6/ps.Compute.Seconds())
		}
	}
	if ps.CyclesSaved > 0 {
		s += fmt.Sprintf(", %d probes, %.1fM cycles saved adaptively",
			ps.Probes, float64(ps.CyclesSaved)/1e6)
	}
	return s
}

// PanelTracker attributes a campaign's progress events and simulated
// work to named panels by job content key. Usage: create with the
// panel labels, Add every job under its panel index, Attach to the
// runner before Run (chaining any progress hook already installed),
// Detach after, and AddResult each job's result; Stats then holds one
// filled PanelStats per label.
//
// A job spec appearing under several panels is attributed to the
// first panel that added it (content keys deduplicate exactly like
// the runner does); every panel still counts it in Jobs.
type PanelTracker struct {
	// Stats holds one entry per label, filled during the run.
	Stats []PanelStats

	panelOf map[string]int // job key -> first panel that added it
	runner  *exp.Runner
	prev    func(exp.ProgressEvent)
}

// NewPanelTracker returns a tracker with one PanelStats per label.
func NewPanelTracker(labels []string) *PanelTracker {
	pt := &PanelTracker{
		Stats:   make([]PanelStats, len(labels)),
		panelOf: make(map[string]int),
	}
	for i, l := range labels {
		pt.Stats[i].Label = l
	}
	return pt
}

// Add registers a job under a panel.
func (pt *PanelTracker) Add(job exp.Job, panel int) {
	k := job.Key()
	if _, dup := pt.panelOf[k]; !dup {
		pt.panelOf[k] = panel
	}
	pt.Stats[panel].Jobs++
}

// Attach hooks the tracker into the runner's progress stream,
// chaining any hook the caller installed. Call Detach when the run
// is done.
func (pt *PanelTracker) Attach(r *exp.Runner) {
	pt.runner, pt.prev = r, r.Progress
	r.Progress = func(ev exp.ProgressEvent) {
		if pi, ok := pt.panelOf[ev.Job.Key()]; ok {
			if ev.Cached {
				pt.Stats[pi].CacheHits++
			}
			pt.Stats[pi].Compute += ev.Elapsed
		}
		if pt.prev != nil {
			pt.prev(ev)
		}
	}
}

// Detach restores the runner's previous progress hook.
func (pt *PanelTracker) Detach() {
	if pt.runner != nil {
		pt.runner.Progress = pt.prev
		pt.runner = nil
	}
}

// AddResult attributes a result's simulated work to the job's panel.
func (pt *PanelTracker) AddResult(job exp.Job, res *exp.Result) {
	if res == nil {
		return
	}
	if pi, ok := pt.panelOf[job.Key()]; ok {
		pt.Stats[pi].SimCycles += res.SimCycles
		pt.Stats[pi].SimFlitHops += res.SimFlitHops
		pt.Stats[pi].Probes += res.SimProbes
		pt.Stats[pi].CyclesSaved += res.SimCyclesSaved
	}
}
