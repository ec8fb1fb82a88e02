package exp

import "fmt"

// Result is the serializable outcome of one job: the union of the
// metrics the modes produce. ModeCost fills the topology and cost
// sections; ModePredict additionally fills the performance and
// analytic sections; ModeSurrogate fills the topology, cost, and
// analytic sections (no simulation); ModeLoad fills the topology
// section and the load-point section.
//
// Results flow through the cache and are shared between duplicate
// jobs in a batch; treat them as read-only.
type Result struct {
	// Identification.
	Topology string `json:"topology"`
	Params   string `json:"params,omitempty"`

	// Topology properties.
	RouterRadix int     `json:"router_radix"`
	Diameter    int     `json:"diameter"`
	AvgHops     float64 `json:"avg_hops"`
	NumLinks    int     `json:"num_links"`

	// Cost (physical model).
	TotalAreaMm2       float64 `json:"total_area_mm2"`
	AreaOverheadPct    float64 `json:"area_overhead_pct"`
	TotalPowerW        float64 `json:"total_power_w"`
	NoCPowerW          float64 `json:"noc_power_w"`
	ChannelUtilization float64 `json:"channel_utilization"`
	MaxLinkLatency     int     `json:"max_link_latency,omitempty"`

	// Performance (cycle-accurate simulation, ModePredict).
	// SaturationResolutionPct is the saturation search's measurement
	// resolution: the width of the final bisection bracket in percent
	// of injection capacity. Two saturation values closer than either
	// one's resolution are indistinguishable to the search.
	ZeroLoadLatency         float64 `json:"zero_load_latency,omitempty"`
	SaturationPct           float64 `json:"saturation_pct,omitempty"`
	SaturationResolutionPct float64 `json:"saturation_resolution_pct,omitempty"`
	RoutingName             string  `json:"routing_name,omitempty"`

	// High-level-model estimates (ModePredict and ModeSurrogate).
	// AnalyticMaxChannelLoad and AnalyticAvgChannelLoad are the raw
	// channel loads behind the capped bound — the surrogate stage's
	// uncapped ranking inputs (only ModeSurrogate fills them, keeping
	// predict results bit-identical to earlier releases).
	AnalyticZeroLoad       float64 `json:"analytic_zero_load,omitempty"`
	AnalyticBoundPct       float64 `json:"analytic_bound_pct,omitempty"`
	AnalyticMaxChannelLoad float64 `json:"analytic_max_channel_load,omitempty"`
	AnalyticAvgChannelLoad float64 `json:"analytic_avg_channel_load,omitempty"`

	// Simulation work behind the result (ModePredict and ModeLoad):
	// total simulated router-cycles and flit movements. Campaign
	// reports divide these by wall-clock time to report simulation
	// speed. Deterministic in the job spec, like every other field.
	SimCycles   int64 `json:"sim_cycles,omitempty"`
	SimFlitHops int64 `json:"sim_flit_hops,omitempty"`

	// Adaptive-control accounting (ModePredict): how many saturation
	// probes the search consumed and how many simulated cycles the
	// adaptive tier's early verdicts avoided (0 on fixed-budget
	// tiers). Deterministic in the job spec, like every other field.
	SimProbes      int   `json:"sim_probes,omitempty"`
	SimCyclesSaved int64 `json:"sim_cycles_saved,omitempty"`

	// SaturationLowerBound marks a saturation search that bottomed
	// out: every probe down to the finest bisection midpoint
	// saturated, so SaturationPct is the search resolution — an upper
	// bound on the true rate — rather than a measured throughput.
	SaturationLowerBound bool `json:"saturation_lower_bound,omitempty"`

	// Single load point (ModeLoad).
	OfferedRate       float64 `json:"offered_rate,omitempty"`
	AcceptedRate      float64 `json:"accepted_rate,omitempty"`
	AvgPacketLatency  float64 `json:"avg_packet_latency,omitempty"`
	P99PacketLatency  float64 `json:"p99_packet_latency,omitempty"`
	DeliveredFraction float64 `json:"delivered_fraction,omitempty"`
}

// FormatSaturation renders a saturation percentage for tables,
// prefixing "<" when the search bottomed out (the value is then the
// bisection resolution, an upper bound on the true rate). The one
// shared spelling of the marker: the report tables and the noc
// formatters both call it, so their renderings cannot drift apart.
func FormatSaturation(pct float64, lowerBound bool) string {
	if lowerBound {
		return fmt.Sprintf("<%.1f", pct)
	}
	return fmt.Sprintf("%.1f", pct)
}
