package noc

import (
	"sparsehamming/internal/tech"
	"sparsehamming/internal/topo"
)

// PaperSHGParams returns the sparse Hamming graph parameter sets the
// paper reports for each evaluation scenario (Figure 6 captions).
func PaperSHGParams(id tech.ScenarioID) topo.HammingParams {
	switch id {
	case tech.ScenarioA:
		return topo.HammingParams{SR: []int{4}, SC: []int{2, 5}}
	case tech.ScenarioB:
		return topo.HammingParams{SR: []int{2, 4}, SC: []int{2, 4}}
	case tech.ScenarioC:
		return topo.HammingParams{SR: []int{3}, SC: []int{2, 5}}
	case tech.ScenarioD:
		return topo.HammingParams{SR: []int{2, 4}, SC: []int{2, 4}}
	default:
		return topo.HammingParams{}
	}
}
