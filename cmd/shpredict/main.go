// Command shpredict runs the full prediction toolchain (Figure 3 of
// the paper) for one topology on one evaluation scenario: the
// approximate floorplanning cost model followed by cycle-accurate
// simulation, printing area, power, zero-load latency, and saturation
// throughput.
//
// Predictions run as experiment-campaign jobs, so -cache memoizes
// them across invocations and -curve sweeps its load points in
// parallel on a worker pool (-jobs).
//
// -route selects a routing algorithm and -traffic a synthetic traffic
// pattern by their registry names (defaults: the topology's
// co-designed routing, uniform random traffic). -quality selects the
// simulation tier: fixed-budget "quick" (default) or "full", or the
// adaptive-control "adaptive" tier (early-verdict probes inside
// quick's budgets; >=2x faster, metrics within ~2%).
//
// Examples:
//
//	shpredict -scenario a -topo sparse-hamming -sr 4 -sc 2,5
//	shpredict -scenario c -topo slimnoc
//	shpredict -scenario b -topo mesh -full
//	shpredict -scenario a -topo mesh -quality adaptive
//	shpredict -scenario a -topo mesh -curve -jobs 8 -cache results.json
//	shpredict -scenario a -topo hypercube -route e-cube -traffic transpose
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sparsehamming/internal/cli"
	"sparsehamming/internal/exp"
	"sparsehamming/internal/noc"
	"sparsehamming/internal/phys"
	"sparsehamming/internal/route"
	"sparsehamming/internal/sim"
	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

func main() {
	var (
		scenario = flag.String("scenario", "a", "evaluation scenario: a|b|c|d|mempool")
		kind     = flag.String("topo", "sparse-hamming", "topology kind (see shgen -h)")
		sr       = flag.String("sr", "", "sparse Hamming row offsets")
		sc       = flag.String("sc", "", "sparse Hamming column offsets")
		routeF   = flag.String("route", "", "routing algorithm (default: the topology's co-designed one): "+
			strings.Join(route.Names(), "|"))
		traffic = flag.String("traffic", "", "traffic pattern for the performance simulations (default uniform): "+
			strings.Join(sim.PatternNames(), "|"))
		full    = flag.Bool("full", false, "full-length simulation windows (same as -quality full)")
		quality = flag.String("quality", "", "simulation quality tier: quick|full|adaptive (default quick)")
		trace   = flag.Int("trace", 0, "additionally trace the first N packets of a short run")
		curve   = flag.Bool("curve", false, "additionally print a load-latency curve")
		jobs    = flag.Int("jobs", 0, "parallel simulation workers (0 = all cores)")
		cacheP  = flag.String("cache", "", "JSON file memoizing results across invocations")
	)
	flag.Parse()

	srs, err := cli.ParseInts(*sr)
	if err != nil {
		fatal(fmt.Errorf("-sr: %w", err))
	}
	scs, err := cli.ParseInts(*sc)
	if err != nil {
		fatal(fmt.Errorf("-sc: %w", err))
	}
	if !route.Registered(*routeF) {
		fatal(fmt.Errorf("-route: unknown algorithm %q (want one of %s)", *routeF, strings.Join(route.Names(), "|")))
	}
	if !sim.PatternRegistered(*traffic) {
		fatal(fmt.Errorf("-traffic: unknown pattern %q (want one of %s)", *traffic, strings.Join(sim.PatternNames(), "|")))
	}
	q := noc.Quick
	if *full {
		q = noc.Full
	}
	if *quality != "" {
		var err error
		if q, err = noc.QualityByName(*quality); err != nil {
			fatal(fmt.Errorf("-quality: %w", err))
		}
	}

	runner := noc.NewRunner(*jobs, nil)
	camp := cli.StartCampaign("shpredict", *cacheP, runner, false)
	campFatal := func(err error) {
		camp.Close()
		fatal(err)
	}

	job := exp.Job{
		Mode:     exp.ModePredict,
		Scenario: *scenario,
		Topo:     *kind,
		Routing:  *routeF,
		Pattern:  *traffic,
		Quality:  noc.QualityName(q),
		Seed:     1,
	}
	// Only the kinds that read the offsets carry them in the spec;
	// stray -sr/-sc on other topologies would needlessly fragment
	// cache keys for otherwise identical jobs.
	switch *kind {
	case "sparse-hamming":
		job.SR, job.SC = srs, scs
	case "ruche":
		job.SR = srs
	}
	arch, err := noc.ArchForJob(job)
	if err != nil {
		campFatal(err)
	}

	results, _, err := runner.Run([]exp.Job{job})
	if err != nil {
		campFatal(err)
	}
	pred := noc.PredictionFromResult(results[0])
	fmt.Printf("scenario %s: %d tiles of %.0f MGE, %g bits/cycle at %.1f GHz\n\n",
		*scenario, arch.NumTiles(), arch.EndpointGE/1e6, arch.LinkBWBits, arch.FreqHz/1e9)
	fmt.Print(noc.FormatPrediction(pred))
	if pred.SimCycles > 0 {
		fmt.Fprintf(os.Stderr, "shpredict: simulated %.2fM cycles, %.1fM flit-hops\n",
			float64(pred.SimCycles)/1e6, float64(pred.SimFlitHops)/1e6)
	}

	if *curve {
		if err := printCurve(runner, job); err != nil {
			campFatal(err)
		}
	}
	camp.Close()
	if *trace > 0 {
		t, err := topo.ByName(*kind, arch.Rows, arch.Cols, srs, scs)
		if err != nil {
			fatal(err)
		}
		if err := tracePackets(arch, t, *routeF, *traffic, *trace); err != nil {
			fatal(err)
		}
	}
}

// printCurve sweeps the offered load as one campaign batch of
// single-point simulation jobs and prints the classic load-latency
// curve.
func printCurve(runner *exp.Runner, base exp.Job) error {
	rates := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	jobsList := make([]exp.Job, len(rates))
	for i, r := range rates {
		j := base
		j.Mode = exp.ModeLoad
		j.Load = r
		jobsList[i] = j
	}
	results, _, err := runner.Run(jobsList)
	if err != nil {
		return err
	}
	pattern := base.Pattern
	if pattern == "" {
		pattern = "uniform random"
	}
	fmt.Printf("\nload-latency curve (%s):\n", pattern)
	fmt.Println("offered   accepted   avg lat    p99 lat")
	for _, st := range results {
		fmt.Printf(" %5.2f     %6.3f   %7.1f    %7.1f\n",
			st.OfferedRate, st.AcceptedRate, st.AvgPacketLatency, st.P99PacketLatency)
	}
	return nil
}

// tracePackets runs a short low-load simulation with per-flit tracing
// enabled for the first n packets (BookSim watch-style output), under
// the same routing and traffic pattern as the headline prediction.
func tracePackets(arch *tech.Arch, t *topo.Topology, routing, traffic string, n int) error {
	cost, err := phys.Evaluate(arch, t)
	if err != nil {
		return err
	}
	rt, err := route.ForName(t, routing)
	if err != nil {
		return err
	}
	pat, err := sim.PatternByName(traffic, t.Rows, t.Cols)
	if err != nil {
		return err
	}
	watch := make(map[int32]bool, n)
	for i := 0; i < n; i++ {
		watch[int32(i)] = true
	}
	tracer := &sim.PacketTracer{Watch: watch}
	_, err = sim.RunConfig(sim.Config{
		Topo: t, Routing: rt,
		NumVCs: arch.Proto.NumVCs, BufDepth: arch.Proto.BufDepthFlits,
		LinkLatency: cost.LinkLatencies, RouterDelay: noc.RouterDelay,
		PacketLen: 4, InjectionRate: 0.02, Pattern: pat, Seed: 1,
		Warmup: 0, Measure: 400, Drain: 2000, Tracer: tracer,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\ntrace of the first %d packets:\n", n)
	w := &sim.WriterTracer{W: os.Stdout}
	for _, ev := range tracer.Events {
		w.Trace(ev)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shpredict:", err)
	os.Exit(1)
}
