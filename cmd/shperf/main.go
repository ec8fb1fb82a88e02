// Command shperf inspects the benchmark trajectory BENCH_sim.json
// (see internal/perf): -check compares the two newest entries of
// every benchmark and prints a warning line for each whose ns/op
// regressed beyond the threshold. The warnings use the GitHub Actions
// annotation syntax (::warning ::...), so the CI bench job surfaces
// them on the run without failing it — perf history is advisory, not
// a gate, because container timing noise would otherwise flake
// unrelated PRs. -fresh restricts the comparison to benchmarks whose
// newest entry is recent (CI passes -fresh 1h so only the benches
// the smoke run just refreshed are compared; stale pairs recorded in
// other sessions never warn on unrelated runs).
//
// -check also verifies the repository's standing metric floors
// (perf.BuiltinFloors) against each floored benchmark's newest entry
// — e.g. the surrogate DSE's simulations-saved factor and frontier
// recall, and the SoA engine's speedup — and, unlike the ns/op
// warnings, a metric below its floor is an error: it is annotated as
// ::error and the command exits 1.
//
// Examples:
//
//	shperf -check
//	shperf -check -fresh 1h
//	shperf -check -threshold 10 -file BENCH_sim.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"sparsehamming/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its
// exit status: 0 when -check finds no floor violation (ns/op
// regressions only warn), 1 on a floor violation or an unreadable
// file, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file      = fs.String("file", perf.DefaultPath(), "benchmark trajectory file")
		check     = fs.Bool("check", false, "warn when the newest entry of a bench regressed vs the previous one; fail on a metric below its floor")
		threshold = fs.Float64("threshold", 15, "regression threshold in percent")
		fresh     = fs.Duration("fresh", 0, "only compare benches whose newest entry is younger than this (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*check {
		fs.Usage()
		return 2
	}
	entries, err := perf.Load(*file)
	if err != nil {
		fmt.Fprintln(stderr, "shperf:", err)
		return 1
	}
	if len(entries) == 0 {
		fmt.Fprintf(stdout, "%s: no entries\n", *file)
		return 0
	}
	var cutoff time.Time
	if *fresh > 0 {
		cutoff = time.Now().Add(-*fresh)
	}
	regs := perf.FreshRegressions(entries, *threshold, cutoff)
	for _, d := range regs {
		fmt.Fprintf(stdout, "::warning ::bench %s regressed %.1f%% (%s -> %s per op)\n",
			d.Bench, d.Pct, time.Duration(d.OldNs).Round(time.Microsecond),
			time.Duration(d.NewNs).Round(time.Microsecond))
	}
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "%s: no ns/op regressions beyond %.0f%%\n", *file, *threshold)
	}
	viol := perf.FloorViolations(entries, perf.BuiltinFloors(), cutoff)
	for _, v := range viol {
		fmt.Fprintf(stdout, "::error ::bench %s metric %s = %g below floor %g\n",
			v.Bench, v.Metric, v.Got, v.Min)
	}
	if len(viol) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "%s: no metric-floor violations\n", *file)
	return 0
}
