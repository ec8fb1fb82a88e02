package noc

import (
	"fmt"
	"strings"

	"sparsehamming/internal/exp"
)

// This file renders the evaluation artifacts as GitHub-flavored
// markdown tables, used by the cmd/ tools and the examples.

// FormatTableI renders Table I.
func FormatTableI(rows []TableIRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "| Topology | Radix | SL | AL | ULD | OPP | Diameter | MinPaths Present | MinPaths Used | #Configs |")
	fmt.Fprintln(&b, "|---|---|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		if !r.Applicable {
			fmt.Fprintf(&b, "| %s | - | - | - | - | - | - | - | - | %s |\n", r.Topology, r.NumConfigs)
			continue
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
			r.Topology, r.RouterRadix, r.SL, r.AL, r.ULD, r.OPP,
			r.Diameter, r.MinPresent, r.MinUsed, r.NumConfigs)
	}
	return b.String()
}

// FormatTableIII renders Table III.
func FormatTableIII(rows []TableIIIRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "| Metric | Correct Value | Prediction | Prediction Error |")
	fmt.Fprintln(&b, "|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %.2f | %.2f | %.0f%% |\n", r.Metric, r.Correct, r.Predicted, r.ErrorPct)
	}
	return b.String()
}

// satCell renders a prediction's saturation throughput, marking
// searches that bottomed out ("<x": the true rate lies below the
// bisection resolution x) instead of printing a hard zero.
func satCell(p *Prediction) string {
	return exp.FormatSaturation(p.SaturationPct, p.SatLowerBound)
}

// FormatCustomization renders the trace of a customization run.
func FormatCustomization(res *CustomizeResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "| Step | Candidate | Params | Area Overhead [%] | Avg Hops | Diameter | Accepted |")
	fmt.Fprintln(&b, "|---|---|---|---|---|---|---|")
	step := 0
	for _, s := range res.Steps {
		mark := ""
		if s.Accepted {
			mark = "yes"
			step++
		}
		fmt.Fprintf(&b, "| %d | %s | %s | %.1f | %.2f | %d | %s |\n",
			step, s.Candidate, s.Params.String(), s.AreaOverheadPct, s.AvgHops, s.Diameter, mark)
	}
	fmt.Fprintf(&b, "\nFinal: %s (area overhead %.1f%%, zero-load latency %.1f cy, saturation %.1f%%)\n",
		res.Params.String(), res.Final.AreaOverheadPct, res.Final.ZeroLoadLatency, res.Final.SaturationPct)
	return b.String()
}

// FormatPrediction renders a single prediction as a readable block.
func FormatPrediction(p *Prediction) string {
	var b strings.Builder
	fmt.Fprintf(&b, "topology:              %s %s\n", p.Topology, p.Params)
	fmt.Fprintf(&b, "router radix:          %d\n", p.RouterRadix)
	fmt.Fprintf(&b, "diameter / avg hops:   %d / %.2f\n", p.Diameter, p.AvgHops)
	fmt.Fprintf(&b, "links:                 %d (max latency %d cy)\n", p.NumLinks, p.MaxLinkLatency)
	fmt.Fprintf(&b, "total area:            %.2f mm2 (NoC overhead %.1f%%)\n", p.TotalAreaMm2, p.AreaOverheadPct)
	fmt.Fprintf(&b, "total power:           %.2f W (NoC %.2f W)\n", p.TotalPowerW, p.NoCPowerW)
	fmt.Fprintf(&b, "channel utilization:   %.2f\n", p.ChannelUtilization)
	if p.RoutingName != "" {
		fmt.Fprintf(&b, "routing:               %s\n", p.RoutingName)
		fmt.Fprintf(&b, "zero-load latency:     %.1f cycles (closed form: %.1f)\n", p.ZeroLoadLatency, p.AnalyticZeroLoad)
		fmt.Fprintf(&b, "saturation throughput: %s%% (channel-load bound: %.1f%%)\n", satCell(p), p.AnalyticBoundPct)
		if p.CyclesSaved > 0 {
			fmt.Fprintf(&b, "adaptive control:      %d probes, %.2fM simulated cycles saved\n",
				p.Probes, float64(p.CyclesSaved)/1e6)
		}
	}
	return b.String()
}
