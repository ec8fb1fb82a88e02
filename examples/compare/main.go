// Compare: regenerate one panel of the paper's Figure 6 — all eight
// topologies evaluated on the same architecture — and reproduce the
// paper's conclusion: the customized sparse Hamming graph achieves
// the highest saturation throughput among all topologies within the
// 40% area-overhead budget. The panel is the scenario's sweep of the
// checked-in examples/specs/figure6-quick.json, the same campaign
// shrun runs.
//
// Run with: go run ./examples/compare [scenario]
package main

import (
	"fmt"
	"log"
	"os"
	"slices"

	"sparsehamming/internal/noc"
	"sparsehamming/internal/report"
	"sparsehamming/internal/spec"
	"sparsehamming/internal/tech"
)

func main() {
	id := tech.ScenarioA
	if len(os.Args) > 1 {
		id = tech.ScenarioID(os.Args[1])
	}
	arch := tech.Scenario(id)
	if arch == nil {
		log.Fatalf("unknown scenario %q (use a, b, c, or d)", os.Args[1])
	}
	fmt.Printf("Figure 6%s: %d tiles with %.0f MGE and %d core(s) each\n\n",
		id, arch.NumTiles(), arch.EndpointGE/1e6, arch.CoresPerTile)

	s, err := spec.ParseFile("examples/specs/figure6-quick.json")
	if err != nil {
		log.Fatal(err)
	}
	groups, err := s.ExpandSweeps()
	if err != nil {
		log.Fatal(err)
	}
	pi := slices.Index(s.Labels(), string(id))
	if pi < 0 {
		log.Fatalf("%s has no sweep for scenario %s", s.Name, id)
	}
	results, _, err := noc.NewRunner(0, nil).Run(groups[pi])
	if err != nil {
		log.Fatal(err)
	}
	report.WriteSweepTable(os.Stdout, s, pi, groups[pi], results)

	// The paper's reading of the figure: restrict to the topologies
	// meeting the cost budget, then rank by throughput and latency.
	fmt.Println("topologies within the 40% area-overhead budget:")
	var bestName string
	var bestSat float64
	for _, r := range results {
		if r.AreaOverheadPct > 40 {
			continue
		}
		fmt.Printf("  %-20s throughput %5.1f%%  latency %5.1f cy\n",
			r.Topology, r.SaturationPct, r.ZeroLoadLatency)
		if r.SaturationPct > bestSat {
			bestSat, bestName = r.SaturationPct, r.Topology
		}
	}
	fmt.Printf("\nhighest throughput within budget: %s (%.1f%%)\n", bestName, bestSat)
}
