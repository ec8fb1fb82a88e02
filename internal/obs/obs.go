// Package obs is the repository's observability layer: a
// dependency-free metrics registry with Prometheus text exposition,
// lightweight execution-trace spans, and structured-logging helpers.
//
// Every tier of the stack feeds it. The simulation engine keeps plain
// atomic counters it bumps only at run boundaries (the steady-state
// cycle loop stays allocation-free and untouched); the campaign
// runner counts batches, job outcomes, and worker busy-time; the
// campaign service instruments every HTTP route. The registry samples
// all of them at scrape time — GET /metrics on cmd/shserved, or the
// -metrics dump of cmd/shrun — in the Prometheus text
// exposition format, without importing any external client library.
//
// Tracing answers "where did this job's 9.5 seconds go": evaluators
// record a span tree per job (cost model, saturation search,
// zero-load reference, every bisection probe, and each probe's
// warmup/measure/drain phases), the TraceStore keeps the most recent
// trees keyed by job content key, and the campaign service surfaces
// them via GET /v1/campaigns/{id}/results?debug=trace.
//
// The three backends are bundled by Hub, the single value a process
// threads through its layers.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// Hub bundles the observability backends one process shares: the
// metric registry, the per-job trace store, and the structured
// logger. A nil *Hub disables instrumentation wherever it is
// accepted, so layers thread it without nil checks.
type Hub struct {
	// Metrics is the process-wide metric registry.
	Metrics *Registry
	// Traces keeps recent per-job span trees, keyed by job content
	// key.
	Traces *TraceStore
	// Log is the structured logger; never nil on a NewHub-built hub.
	Log *slog.Logger
	// SlowJob is the evaluation-duration threshold above which a job
	// is logged as slow (with its phase breakdown); 0 takes
	// DefaultSlowJob.
	SlowJob time.Duration
}

// DefaultSlowJob is the slow-job log threshold a Hub with a zero
// SlowJob field applies.
const DefaultSlowJob = 5 * time.Second

// NewHub returns a ready-to-use hub: fresh registry, a trace store
// holding DefaultTraceCap traces, and a logger that discards
// everything (replace Log to enable logging).
func NewHub() *Hub {
	return &Hub{
		Metrics: NewRegistry(),
		Traces:  NewTraceStore(DefaultTraceCap),
		Log:     slog.New(discardHandler{}),
	}
}

// SlowJobThreshold returns the effective slow-job threshold.
func (h *Hub) SlowJobThreshold() time.Duration {
	if h == nil || h.SlowJob <= 0 {
		return DefaultSlowJob
	}
	return h.SlowJob
}

// Logger returns the hub's logger, falling back to a discarding
// logger so callers never need a nil check.
func (h *Hub) Logger() *slog.Logger {
	if h == nil || h.Log == nil {
		return slog.New(discardHandler{})
	}
	return h.Log
}

// NewLogger builds a text-format slog logger writing to w at the
// named level: "debug", "info", "warn", or "error" (the spelling
// -log-level flags accept). An empty level means "info".
func NewLogger(w io.Writer, level string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: lv})), nil
}

// ParseLevel parses a -log-level flag value; "" means info.
func ParseLevel(level string) (slog.Level, error) {
	switch strings.ToLower(level) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", level)
	}
}

// discardHandler is a slog.Handler that drops every record (the
// default for hubs whose owner did not configure logging).
type discardHandler struct{}

// Enabled reports false for every level, short-circuiting the logger.
func (discardHandler) Enabled(context.Context, slog.Level) bool { return false }

// Handle drops the record.
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }

// WithAttrs returns the handler unchanged.
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler { return d }

// WithGroup returns the handler unchanged.
func (d discardHandler) WithGroup(string) slog.Handler { return d }
