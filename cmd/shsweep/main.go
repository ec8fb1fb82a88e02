// Command shsweep regenerates the paper's Figure 6: the comparison of
// all eight topologies across the four evaluation scenarios, printed
// as markdown tables or CSV. It can also print Table I (compliance)
// and Table III (MemPool toolchain validation).
//
// The sweep runs as a parallel experiment campaign: every
// scenario/topology pair is one job on a worker pool (-jobs), and
// -cache memoizes results on disk so a repeated sweep performs zero
// new simulations. Tables are byte-identical regardless of -jobs and
// -cache; the campaign report and cache statistics go to stderr.
//
// -route forces one routing algorithm onto every topology and
// -traffic swaps the uniform-random traffic for another registered
// pattern — the registry-driven ablation knobs (the result is then an
// ablation, not the paper's Figure 6 configuration).
//
// -quality selects the simulation tier: the fixed-budget "quick"
// (default) and "full" windows, or "adaptive" — quick's budgets as
// caps with early-verdict saturation probes and steady-state stopping
// (>=2x faster, metrics within ~2%; see docs/ARCHITECTURE.md
// "Simulation control").
// -cpuprofile/-memprofile write pprof profiles around the campaign.
//
// Examples:
//
//	shsweep -scenario a
//	shsweep -scenario all -jobs 8 -csv > figure6.csv
//	shsweep -scenario all -cache results.json -progress
//	shsweep -scenario a -route hop-minimal -traffic transpose
//	shsweep -scenario a -quality adaptive
//	shsweep -scenario a -cpuprofile prof.cpu
//	shsweep -table3
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sparsehamming/internal/cli"
	"sparsehamming/internal/noc"
	"sparsehamming/internal/route"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/tech"
)

func main() {
	var (
		scenario = flag.String("scenario", "a", "scenario: a|b|c|d|all")
		csv      = flag.Bool("csv", false, "emit CSV instead of markdown")
		table3   = flag.Bool("table3", false, "print Table III (MemPool validation) instead")
		full     = flag.Bool("full", false, "full-length simulation windows (same as -quality full)")
		qualityF = flag.String("quality", "", "simulation quality tier: quick|full|adaptive (default quick)")
		routeF   = flag.String("route", "", "force one routing onto every topology (ablation): "+
			strings.Join(route.Names(), "|"))
		traffic = flag.String("traffic", "", "traffic pattern for the performance simulations (default uniform): "+
			strings.Join(sim.PatternNames(), "|"))
		jobs     = flag.Int("jobs", 0, "parallel simulation workers (0 = all cores)")
		cacheP   = flag.String("cache", "", "JSON file memoizing results across invocations")
		progress = flag.Bool("progress", false, "log per-job progress to stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile after the campaign to this file")
		metrics  = flag.Bool("metrics", false, "dump Prometheus metrics for the campaign to stderr on exit")
	)
	flag.Parse()

	quality := noc.Quick
	if *full {
		quality = noc.Full
	}
	runner := noc.NewRunner(*jobs, nil)
	camp := cli.StartCampaign("shsweep", *cacheP, runner, *progress)
	prof := cli.StartProfiles("shsweep", *cpuProf, *memProf)
	fatal := func(err error) {
		prof.Stop()
		camp.Close()
		fmt.Fprintln(os.Stderr, "shsweep:", err)
		os.Exit(1)
	}
	if *qualityF != "" {
		q, err := noc.QualityByName(*qualityF)
		if err != nil {
			fatal(fmt.Errorf("-quality: %w", err))
		}
		quality = q
	}
	if !route.Registered(*routeF) {
		fatal(fmt.Errorf("-route: unknown algorithm %q (want one of %s)", *routeF, strings.Join(route.Names(), "|")))
	}
	if !sim.PatternRegistered(*traffic) {
		fatal(fmt.Errorf("-traffic: unknown pattern %q (want one of %s)", *traffic, strings.Join(sim.PatternNames(), "|")))
	}
	var opts *noc.Figure6Options
	if *routeF != "" || *traffic != "" {
		if *table3 {
			fatal(fmt.Errorf("-route/-traffic apply to the Figure 6 sweep, not -table3"))
		}
		opts = &noc.Figure6Options{Routing: *routeF, Pattern: *traffic}
	}

	if *table3 {
		rows, pred, err := noc.TableIIIWith(quality, runner)
		if err != nil {
			fatal(err)
		}
		if *metrics {
			cli.DumpMetrics(os.Stderr, runner)
		}
		prof.Stop()
		camp.Close()
		fmt.Println("Table III: MemPool toolchain validation")
		fmt.Print(noc.FormatTableIII(rows))
		fmt.Printf("\n(stand-in topology: %s, diameter %d, routing %s)\n",
			pred.Topology, pred.Diameter, pred.RoutingName)
		return
	}

	var ids []tech.ScenarioID
	if *scenario == "all" {
		ids = tech.AllScenarios()
	} else {
		ids = []tech.ScenarioID{tech.ScenarioID(*scenario)}
	}

	// One campaign batch across all requested scenarios: the worker
	// pool sees every panel's jobs at once.
	panels, stats, err := noc.Figure6Panels(ids, quality, runner, opts)
	if err != nil {
		fatal(err)
	}
	if *metrics {
		cli.DumpMetrics(os.Stderr, runner)
	}
	prof.Stop()
	camp.Close()
	for _, ps := range stats {
		fmt.Fprintf(os.Stderr, "shsweep: figure 6%s: %s\n", ps.Label, ps)
	}

	if *csv {
		fmt.Println("scenario,topology,params,area_overhead_pct,noc_power_w,zero_load_latency_cycles,saturation_pct")
	}
	for i, id := range ids {
		rows := panels[i]
		if *csv {
			// Strip the header the formatter adds; keep data lines only.
			out := noc.CSVFigure6(rows)
			fmt.Print(out[indexAfterNewline(out):])
			continue
		}
		arch := tech.Scenario(id)
		fmt.Printf("## Figure 6%s: %d tiles with %.0f MGE and %d core(s) each\n\n",
			id, arch.NumTiles(), arch.EndpointGE/1e6, arch.CoresPerTile)
		fmt.Print(noc.FormatFigure6(rows))
		fmt.Println()
	}
}

func indexAfterNewline(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return i + 1
		}
	}
	return 0
}
