package cli

import (
	"io"

	"sparsehamming/internal/exp"
	"sparsehamming/internal/noc"
	"sparsehamming/internal/obs"
)

// DumpMetrics writes a one-shot Prometheus text exposition of the
// simulator, runner, and cache series to w — the local-CLI
// counterpart of shserved's GET /metrics, behind the shrun -metrics
// flag. The cache series come from runner.Cache as attached
// at call time, so call it after StartCampaign.
func DumpMetrics(w io.Writer, runner *exp.Runner) error {
	m := obs.NewRegistry()
	noc.RegisterMetrics(m, runner, runner.Cache)
	return m.WritePrometheus(w)
}
