// Command svcbench is the service-driven benchmark of the sparse
// Hamming toolchain: it starts the real cmd/shserved as a child
// process on loopback, drives it closed-loop with two clients over
// generated campaign workloads, checks the results against the
// in-process toolchain, and prints end-to-end (or, with -trace 1,
// per-layer) metrics as one JSON line. See README.md beside this file.
//
// Run it through run.sh from the repository root, which builds
// shserved and svcbench into .bench_build/bin first:
//
//	bash svcbench/run.sh --workload predict-mix --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/noc"
	"sparsehamming/internal/report"
)

// rssInterval is how often the server's resident set is sampled
// during the timed pass.
const rssInterval = 50 * time.Millisecond

// setupSpawns is how many times a run starts shserved to measure
// setup_s, half before and half after the timed pass; the median is
// reported. A spawn takes a few milliseconds (tens with cache-rw's
// cache file), so many are cheap, and they make the median steady.
const setupSpawns = 200

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the final JSON line of a run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric the benchmark reports.
var units = map[string]string{
	// End to end (endToEnd).
	"setup_s":     "s",
	"wall_s":      "s",
	"req_p50_ms":  "ms",
	"req_p90_ms":  "ms",
	"peak_rss_mb": "MB",

	// Workload-specific figures of the untraced pass (workloadSpecific).
	"hit_p50_ms":      "ms",
	"hit_p90_ms":      "ms",
	"sim_mhops_per_s": "Mhops/s",
	"mempool_err_pct": "%",
	"req_fail_pct":    "%",
	"proc.rss_hwm_mb": "MB",

	// Per layer, from the traced pass and the decomposition pass.
	"serve.submit_ms":       "ms",
	"serve.queue_ms":        "ms",
	"serve.result_ms":       "ms",
	"serve.overhead_ms":     "ms",
	"spec.expand_ms":        "ms",
	"exp.busy_s":            "s",
	"exp.pool_util":         "ratio",
	"exp.jobs_per_group":    "jobs",
	"exp.cache_hit_ratio":   "ratio",
	"exp.cache_open_ms":     "ms",
	"exp.cache_save_ms":     "ms",
	"exp.cache_mb":          "MB",
	"noc.job_self_ms":       "ms",
	"phys.cost_s":           "s",
	"phys.evaluate_ms":      "ms",
	"topo.build_ms":         "ms",
	"route.build_ms":        "ms",
	"sim.shape_build_ms":    "ms",
	"sim.build_reduction_x": "x",
	"sim.zeroload_s":        "s",
	"sim.probe_s":           "s",
	"sim.probes_per_job":    "probes",
	"sim.spec_useful_ratio": "ratio",
	"sim.cycles_saved":      "cycles",
	"sim.warmup_s":          "s",
	"sim.measure_s":         "s",
	"sim.drain_s":           "s",
	"sim.ns_per_flit_hop":   "ns",
	"sim.runs":              "count",
	"sim.cycles":            "cycles",
	"sim.flit_hops":         "count",
	"sim.runs_executed":     "count",
	"analytic.estimate_ms":  "ms",
	"trace.read_ms":         "ms",
	"dse.surrogate_ms":      "ms",
	"report.csv_ms":         "ms",
	"obs.overhead_pct":      "%",
	"obs.unattributed_pct":  "%",
}

func init() {
	for _, g := range gridClasses {
		units["sim.ns_per_flit_hop."+g] = "ns"
		for _, ph := range simPhases {
			units["sim.ns_per_flit_hop."+g+"."+ph] = "ns"
		}
	}
}

// endToEnd lists the metrics a -trace 0 run reports.
var endToEnd = []string{"setup_s", "wall_s", "req_p50_ms", "req_p90_ms", "peak_rss_mb"}

// workloadSpecific lists figures of the untraced pass that a -trace 1
// run reports beside the per-layer metrics: each applies to some
// workloads only (0 elsewhere), or is too noisy to gate.
var workloadSpecific = []string{"hit_p50_ms", "hit_p90_ms", "sim_mhops_per_s", "mempool_err_pct", "req_fail_pct", "proc.rss_hwm_mb"}

// unattributedFlagPct is the attribution floor: more than this share
// of server-side campaign time outside every span is flagged.
const unattributedFlagPct = 5

func main() {
	var (
		workload = flag.String("workload", PredictMix, "workload: predict-mix | load-sweep | cache-rw")
		seed     = flag.Int64("seed", 1, "workload seed: every spec, trace and cache file derives from it")
		seconds  = flag.Int("seconds", 30, "run length the request lists are sized for; a pass is cut after 5x this (at most 100s)")
		traceF   = flag.Int("trace", 0, "0: end-to-end metrics; 1: add a traced pass and report per-layer metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*traceF != 0 && *traceF != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *traceF == 1); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		os.Exit(1)
	}
}

// logf prints a progress or summary line on stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "svcbench: "+format+"\n", args...)
}

// run executes one benchmark run from the repository root, with
// shserved built at .bench_build/bin/shserved, and prints its result
// line.
func run(name string, seed int64, seconds int, traced bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	serverBin := filepath.Join(root, ".bench_build", "bin", "shserved")
	dir := filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-s%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := buildWorkload(name, seed, dir)
	if err != nil {
		return err
	}
	env := &runEnv{w: w, serverBin: serverBin, dir: dir, logPath: filepath.Join(dir, "shserved.log"),
		limit: time.Duration(min(max(5*seconds, 60), 100)) * time.Second}

	// Untimed: pre-fill the cache file and compute the reader specs'
	// fresh CSVs.
	var fresh map[string][]byte
	if w.Cache {
		env.pristine, env.cachePath = filepath.Join(dir, "cache-pristine.json"), filepath.Join(dir, "cache.json")
		t := time.Now()
		if fresh, err = prefill(w, env.pristine); err != nil {
			return err
		}
		logf("pre-filled cache in %.1fs", time.Since(t).Seconds())
	}

	// Setup: spawn several times before the timed pass (keeping the
	// last instance to serve it) and as often after it, so the median
	// spans the host's state over the whole run.
	var setups []float64
	start := func() (*server, error) {
		s, d, err := env.start()
		if err == nil {
			setups = append(setups, d.Seconds())
		}
		return s, err
	}
	spawn := func(n int) error {
		for k := 0; k < n; k++ {
			s, err := start()
			if err != nil {
				return err
			}
			s.stop()
		}
		return nil
	}
	if err := spawn(setupSpawns/2 - 1); err != nil {
		return err
	}
	srv, err := start()
	if err != nil {
		return err
	}
	defer srv.stop()

	ctx, cancel := context.WithTimeout(context.Background(), env.limit)
	stopRSS := srv.sampleRSS(rssInterval)
	out, wall := drive(ctx, srv.base, w, false)
	rssSamples := stopRSS()
	cancel()
	hwm, err := srv.statusMB("VmHWM")
	if err != nil {
		return err
	}
	rss, rssErr := percentile(rssSamples, 95)
	logf("rss samples %d: median %.1f MB, p95 %.1f MB, VmHWM %.1f MB", len(rssSamples), median(rssSamples), rss, hwm)
	// Untimed: the result documents (simulated work, Table III inputs).
	if err := fetchAllResults(srv.base, w, out); err != nil {
		return err
	}
	srv.stop()
	if err := spawn(setupSpawns / 2); err != nil {
		return err
	}

	c := &checker{}
	c.checkShape(w, out)
	e2e := endToEndMetrics(w, out, wall, setups, rss, c)
	if rssErr != nil {
		c.failf("peak_rss_mb: %v", rssErr)
	}
	e2e["proc.rss_hwm_mb"] = hwm
	switch name {
	case PredictMix:
		c.checkSample(w, out)
		c.checkMempool(e2e["mempool_err_pct"])
	case LoadSweep:
		c.checkSample(w, out)
	case CacheRW:
		c.checkCacheRW(w, out, fresh)
	}
	sha := resultsSHA(w, out)
	attempted, failed := len(out), 0
	for _, o := range out {
		if o.Err != nil {
			failed++
		}
	}
	e2e["req_fail_pct"] = 100 * float64(failed) / float64(attempted)
	c.checkStratification(w, out)

	metrics := map[string]float64{}
	if traced {
		if err := env.tracedPass(wall, sha, c, metrics); err != nil {
			return err
		}
		for _, k := range workloadSpecific {
			metrics[k] = e2e[k]
		}
		for k := range units {
			if _, ok := metrics[k]; !ok && !slices.Contains(endToEnd, k) {
				return fmt.Errorf("traced run produced no %s", k)
			}
		}
	} else {
		for _, k := range endToEnd {
			metrics[k] = e2e[k]
		}
	}
	if err := writeSpans(root, w, out, traced); err != nil {
		return err
	}

	summary(w, len(out), e2e, sha)
	for _, f := range c.failures {
		logf("CORRECTNESS FAILURE: %s", f)
	}
	line := resultLine{Correct: len(c.failures) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for k, v := range metrics {
		line.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	fmt.Printf("results_sha256 %s %s\n", name, sha)
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

// prefill writes the pre-filled cache file of cache-rw: the reader
// specs' results plus the filler spec's results stored under
// fillSeeds distinct seeds (cost and surrogate results do not depend
// on the seed, so these are exactly what the evaluator would store).
// It returns each reader spec's freshly computed CSV.
func prefill(w *Workload, path string) (map[string][]byte, error) {
	c, err := exp.OpenCache(path)
	if err != nil {
		return nil, err
	}
	fresh := map[string][]byte{}
	for _, s := range w.Readers {
		r, err := newRequest("read", readerClient, s)
		if err != nil {
			return nil, err
		}
		results := make([]*exp.Result, len(r.Jobs))
		for i, j := range r.Jobs {
			if results[i], err = noc.EvalJob(j); err != nil {
				return nil, err
			}
			c.Put(j, results[i])
		}
		var b bytes.Buffer
		report.WriteCSV(&b, r.Spec, r.Groups, results)
		fresh[s.Name] = b.Bytes()
	}
	fill, err := newRequest("fill", writerClient, w.FillSpec)
	if err != nil {
		return nil, err
	}
	for _, j := range fill.Jobs {
		res, err := noc.EvalJob(j)
		if err != nil {
			return nil, err
		}
		for s := 1; s <= fillSeeds; s++ {
			j.Seed = int64(s)
			c.Put(j, res)
		}
	}
	return fresh, c.Save()
}

// copyFile copies src to dst.
func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// fetchAllResults reads the JSON results of every successful campaign
// of a simulating workload (cache-rw needs none: it has no simulated
// work and its checks compare CSVs).
func fetchAllResults(base string, w *Workload, out []Outcome) error {
	if w.Cache {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := newClient()
	defer c.CloseIdleConnections()
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		res, err := fetchResults(ctx, c, base, out[i].ID, false)
		if err != nil {
			return err
		}
		out[i].Results = res
	}
	return nil
}

// endToEndMetrics computes the untraced pass's metrics (including the
// workload-specific ones reported by traced runs). A percentile the
// successful requests cannot support reads 0 and fails the run.
func endToEndMetrics(w *Workload, out []Outcome, wall time.Duration, setups []float64, rss float64, c *checker) map[string]float64 {
	var lat, hit []float64
	var hops int64
	m := map[string]float64{
		"setup_s": median(setups), "wall_s": wall.Seconds(), "peak_rss_mb": rss,
		"hit_p50_ms": 0, "hit_p90_ms": 0, "sim_mhops_per_s": 0, "mempool_err_pct": 0,
	}
	for i, o := range out {
		if o.Err != nil {
			continue
		}
		if w.primary(&w.Requests[i]) {
			lat = append(lat, ms(o.Latency))
		} else {
			hit = append(hit, ms(o.Latency))
		}
		if o.Results == nil {
			continue
		}
		for _, sw := range o.Results.Sweeps {
			for _, r := range sw.Results {
				if r != nil {
					hops += r.SimFlitHops
				}
			}
		}
		if w.Requests[i].Class == "mempool" && len(o.Results.Sweeps) == 1 && len(o.Results.Sweeps[0].Results) == 1 {
			v, err := mempoolErrPct(w.Requests[i].Jobs[0], o.Results.Sweeps[0].Results[0])
			if err != nil {
				c.failf("Table III from the service's result: %v", err)
			}
			m["mempool_err_pct"] = v
		}
	}
	pct := func(name string, xs []float64, p float64) {
		v, err := percentile(xs, p)
		if err != nil {
			c.failf("%s: %v", name, err)
		}
		m[name] = v
	}
	pct("req_p50_ms", lat, 50)
	pct("req_p90_ms", lat, 90)
	if w.HitClass != "" {
		pct("hit_p50_ms", hit, 50)
		pct("hit_p90_ms", hit, 90)
	}
	m["sim_mhops_per_s"] = float64(hops) / 1e6 / wall.Seconds()
	return m
}

// checkStratification verifies that the p50 and p90 samples come from
// the request classes the request-list design puts them in: a sample
// from another class means the classes' latencies overlap at that
// rank, so the percentile would move with the class mix rather than
// with the code.
func (c *checker) checkStratification(w *Workload, out []Outcome) {
	type sample struct {
		lat   time.Duration
		class string
	}
	var s []sample
	for i, o := range out {
		if o.Err == nil && w.primary(&w.Requests[i]) {
			s = append(s, sample{o.Latency, w.Requests[i].Class})
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lat < s[j].lat })
	for _, p := range []float64{50, 90} {
		idx, err := percentileIndex(len(s), p)
		if err != nil {
			continue
		}
		want, margin := classAt(w.Sizes, idx)
		got := s[idx].class
		if want < 0 || got != w.Classes[want] {
			c.failf("p%g (rank %d) fell in class %s, designed for %s", p, idx, got, w.Classes[max(want, 0)])
		} else {
			logf("p%g (rank %d) in class %s, %d ranks from its block edge", p, idx, got, margin)
		}
	}
}

// runEnv is one run's workload and the files its servers use.
type runEnv struct {
	w                   *Workload
	serverBin, dir      string
	logPath             string
	pristine, cachePath string // the pre-filled cache and the server's copy (cache-rw)
	limit               time.Duration
}

// start spawns a server, on a fresh copy of the pre-filled cache when
// the workload has one.
func (e *runEnv) start() (*server, time.Duration, error) {
	if e.w.Cache {
		if err := copyFile(e.pristine, e.cachePath); err != nil {
			return nil, 0, err
		}
	}
	return startServer(e.serverBin, e.cachePath, e.logPath)
}

// tracedPass re-runs the workload on a fresh server, fetching each
// campaign's span trees, and fills the per-layer metrics. shserved
// records spans on every run, so both passes run the same server; the
// traced pass differs only in its client's trace fetches, which drive
// keeps out of the wall.
func (e *runEnv) tracedPass(untracedWall time.Duration, sha string, c *checker, m map[string]float64) error {
	srv, _, err := e.start()
	if err != nil {
		return err
	}
	defer srv.stop()
	ctx, cancel := context.WithTimeout(context.Background(), e.limit)
	defer cancel()
	before, err := scrape(ctx, srv.base)
	if err != nil {
		return err
	}
	out, wall := drive(ctx, srv.base, e.w, true)
	after, err := scrape(ctx, srv.base)
	if err != nil {
		return err
	}
	srv.stop()
	for i, o := range out {
		if o.Err != nil {
			c.failf("traced request %d: %v", i, o.Err)
		}
	}
	if got := resultsSHA(e.w, out); got != sha {
		c.failf("traced pass results %s differ from the untraced pass %s", got, sha)
	}
	traceLayers(out, wall, before, after, m)
	// Both servers record spans, so this is the difference between two
	// passes of the same server, not a tracing cost.
	m["obs.overhead_pct"] = 100 * (wall.Seconds() - untracedWall.Seconds()) / untracedWall.Seconds()
	if err := decompose(e.w, out, e.cachePath, e.dir, m); err != nil {
		return err
	}
	if u := m["obs.unattributed_pct"]; u > unattributedFlagPct {
		logf("FLAG: obs.unattributed_pct %.1f%% exceeds the %d%% attribution floor", u, unattributedFlagPct)
	}
	return nil
}

// spanRecord is one client-side request span tree written out at the
// end of a run.
type spanRecord struct {
	Request  int     `json:"request"`
	Class    string  `json:"class"`
	Client   int     `json:"client"`
	Campaign string  `json:"campaign"`
	StartMs  float64 `json:"start_ms"`
	SubmitMs float64 `json:"submit_ms"`
	WaitMs   float64 `json:"wait_ms"`
	FetchMs  float64 `json:"fetch_ms"`
	Error    string  `json:"error,omitempty"`
}

// writeSpans writes the untraced pass's client spans, kept in memory
// during the run, to .bench_build/spans/.
func writeSpans(root string, w *Workload, out []Outcome, traced bool) error {
	dir := filepath.Join(root, ".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var t0 time.Time
	for _, o := range out {
		if !o.Start.IsZero() && (t0.IsZero() || o.Start.Before(t0)) {
			t0 = o.Start
		}
	}
	recs := make([]spanRecord, len(out))
	for i, o := range out {
		recs[i] = spanRecord{Request: i, Class: w.Requests[i].Class, Client: o.Client, Campaign: o.ID,
			StartMs: ms(o.Start.Sub(t0)), SubmitMs: ms(o.Submit), WaitMs: ms(o.Wait), FetchMs: ms(o.Fetch)}
		if o.Err != nil {
			recs[i].Error = o.Err.Error()
		}
	}
	data, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return err
	}
	trace := 0
	if traced {
		trace = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d-trace%d.json", w.Name, w.Seed, trace)), data, 0o644)
}

// summary prints the human-readable result lines on stderr.
func summary(w *Workload, attempted int, m map[string]float64, sha string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		logf("%-18s %12.4f %s", k, m[k], units[k])
	}
	logf("%s seed %d: %d requests, results sha256 %s", w.Name, w.Seed, attempted, sha)
}
