// Package cli holds the small helpers shared by the command-line
// tools in cmd/: topology construction by name and comma-separated
// integer list parsing.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"sparsehamming/internal/topo"
)

// BuildTopology constructs a topology by kind name (one of
// topo.Names()) through the topo registry. The sr and sc strings hold
// comma-separated sparse Hamming offsets (ignored by the other kinds,
// except ruche, which takes its factor from the first value of sr).
func BuildTopology(kind string, rows, cols int, sr, sc string) (*topo.Topology, error) {
	srs, err := ParseInts(sr)
	if err != nil {
		return nil, fmt.Errorf("-sr: %w", err)
	}
	scs, err := ParseInts(sc)
	if err != nil {
		return nil, fmt.Errorf("-sc: %w", err)
	}
	return topo.ByName(kind, rows, cols, srs, scs)
}

// ParseInts parses a comma-separated integer list; empty input yields
// nil.
func ParseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
