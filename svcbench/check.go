package main

// Correctness by cross-path agreement: the service's CSV is compared
// with what the same jobs produce in-process through the toolchain's
// public evaluator and renderer. No digest is pinned; the per-workload
// results SHA-256 is printed for cross-commit comparison only.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/noc"
	"sparsehamming/internal/report"
)

// sampleJobs is how many jobs of a simulating workload are
// re-evaluated in-process per run.
const sampleJobs = 6

// sampleWriters is how many cache-rw writer campaigns are recomputed
// in-process in full per run.
const sampleWriters = 3

// checker collects correctness failures.
type checker struct {
	failures []string
}

func (c *checker) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// csvLines splits a CSV body into its lines (without the trailing
// newline's empty element).
func csvLines(b []byte) []string {
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}

// checkShape verifies every request completed with one CSV row per
// expanded job under the shared header.
func (c *checker) checkShape(w *Workload, out []Outcome) {
	for i, o := range out {
		if o.Err != nil {
			c.failf("request %d (%s): %v", i, w.Requests[i].Spec.Name, o.Err)
			continue
		}
		lines := csvLines(o.CSV)
		if lines[0] != report.CSVHeader {
			c.failf("request %d: CSV header %q", i, lines[0])
		}
		if got, want := len(lines)-1, len(w.Requests[i].Jobs); got != want {
			c.failf("request %d (%s): %d CSV rows for %d expanded jobs", i, w.Requests[i].Spec.Name, got, want)
		}
	}
}

// jobRow renders one job's CSV row the way the service does.
func jobRow(label string, j exp.Job, r *exp.Result) string {
	var b bytes.Buffer
	report.WriteCSVRows(&b, label, []exp.Job{j}, []*exp.Result{r})
	return strings.TrimSuffix(b.String(), "\n")
}

// checkSample re-evaluates a seeded sample of jobs in-process with
// noc.EvalJob and compares each rendered row byte for byte with the
// service's row for that job.
func (c *checker) checkSample(w *Workload, out []Outcome) {
	type pick struct{ req, job int }
	rng := rand.New(rand.NewSource(w.Seed + 7919))
	var picks []pick
	for len(picks) < sampleJobs {
		i := rng.Intn(len(out))
		if w.Requests[i].Class == "mempool" {
			continue // checked against Table III instead
		}
		picks = append(picks, pick{i, rng.Intn(len(w.Requests[i].Jobs))})
	}
	rows := make([]string, len(picks))
	errs := make([]error, len(picks))
	var wg sync.WaitGroup
	sem := make(chan struct{}, serverJobs)
	for k, p := range picks {
		wg.Add(1)
		go func(k int, p pick) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			req := w.Requests[p.req]
			j := req.Jobs[p.job]
			res, err := noc.EvalJob(j)
			if err != nil {
				errs[k] = err
				return
			}
			rows[k] = jobRow(sweepLabel(req, p.job), j, res)
		}(k, p)
	}
	wg.Wait()
	for k, p := range picks {
		if out[p.req].Err != nil {
			continue // already reported
		}
		if errs[k] != nil {
			c.failf("in-process eval of request %d job %d: %v", p.req, p.job, errs[k])
			continue
		}
		lines := csvLines(out[p.req].CSV)
		if p.job+1 >= len(lines) || lines[p.job+1] != rows[k] {
			got := ""
			if p.job+1 < len(lines) {
				got = lines[p.job+1]
			}
			c.failf("request %d job %d: service row %q != in-process row %q", p.req, p.job, got, rows[k])
		}
	}
}

// sweepLabel returns the label of the sweep holding job index k of a
// request's expansion.
func sweepLabel(r Request, k int) string {
	labels := r.Spec.Labels()
	for gi, g := range r.Groups {
		if k < len(g) {
			return labels[gi]
		}
		k -= len(g)
	}
	return ""
}

// freshCSV evaluates every job of a request in-process and renders the
// campaign CSV.
func freshCSV(r Request) ([]byte, error) {
	results := make([]*exp.Result, len(r.Jobs))
	for i, j := range r.Jobs {
		res, err := noc.EvalJob(j)
		if err != nil {
			return nil, fmt.Errorf("%s job %d: %w", r.Spec.Name, i, err)
		}
		results[i] = res
	}
	var b bytes.Buffer
	report.WriteCSV(&b, r.Spec, r.Groups, results)
	return b.Bytes(), nil
}

// checkCacheRW compares every reader response with the reader spec's
// freshly computed CSV, and a seeded sample of writer campaigns with
// their in-process recomputation.
func (c *checker) checkCacheRW(w *Workload, out []Outcome, fresh map[string][]byte) {
	rng := rand.New(rand.NewSource(w.Seed + 7919))
	for i, o := range out {
		r := w.Requests[i]
		if o.Err != nil || r.Class != w.HitClass {
			continue
		}
		if !bytes.Equal(o.CSV, fresh[r.Spec.Name]) {
			c.failf("reader request %d (%s): CSV differs from the freshly computed one", i, r.Spec.Name)
		}
	}
	for k := 0; k < sampleWriters; k++ {
		i := rng.Intn(writerRequests)
		if out[i].Err != nil {
			continue
		}
		want, err := freshCSV(w.Requests[i])
		if err != nil {
			c.failf("in-process recomputation: %v", err)
			continue
		}
		if !bytes.Equal(out[i].CSV, want) {
			c.failf("writer request %d (%s): CSV differs from the in-process recomputation", i, w.Requests[i].Spec.Name)
		}
	}
}

// mempoolErrPct is the mean error of the Table III rows built from the
// service's result for the Table III job: noc.TableIIIWith runs on a
// cache holding only that result, so it renders the rows without
// simulating.
func mempoolErrPct(j exp.Job, r *exp.Result) (float64, error) {
	cache := exp.NewCache()
	cache.Put(j, r)
	rows, _, err := noc.TableIIIWith(noc.Quick, noc.NewRunner(1, cache))
	if err != nil {
		return 0, err
	}
	if hits, _ := cache.Stats(); hits != 1 {
		return 0, fmt.Errorf("the service's result is not the Table III job's (%d cache hits)", hits)
	}
	return meanErrorPct(rows), nil
}

// meanErrorPct averages Table III's per-row errors.
func meanErrorPct(rows []noc.TableIIIRow) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += r.ErrorPct
	}
	return sum / float64(len(rows))
}

// checkMempool compares the service's Table III error with the mean of
// the in-process noc.TableIII(noc.Quick) rows.
func (c *checker) checkMempool(got float64) {
	rows, _, err := noc.TableIII(noc.Quick)
	if err != nil {
		c.failf("in-process Table III: %v", err)
		return
	}
	if want := meanErrorPct(rows); got != want {
		c.failf("mempool_err_pct %.6f != in-process Table III mean %.6f", got, want)
	}
}

// resultsSHA digests the CSV of every primary request in list order
// and of the first response to each all-hit spec (the reader's
// request count depends on timing; its answers must not). Generated
// trace paths are replaced by a placeholder so checkouts in different
// directories digest equally.
func resultsSHA(w *Workload, out []Outcome) string {
	h := sha256.New()
	seen := map[string]bool{}
	for i, o := range out {
		r := w.Requests[i]
		if !w.primary(&r) {
			if seen[r.Spec.Name] {
				continue
			}
			seen[r.Spec.Name] = true
		}
		b := o.CSV
		if w.TraceDir != "" {
			b = bytes.ReplaceAll(b, []byte(w.TraceDir), []byte("<traces>"))
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
