// Package obs is the repository's zero-dependency observability layer:
// a metrics registry (counters, gauges, fixed-bucket histograms) exported
// via expvar and dumpable as JSON, hierarchical virtual-time trace spans
// written as JSONL or Chrome trace_event JSON (openable in Perfetto), and
// structured logging over log/slog with a no-op default.
//
// Everything is nil-safe: a nil *Observer, *Registry, *Counter, *Gauge,
// *Histogram, *Tracer, or *Span is a valid disabled instance whose
// methods return immediately. Instrumented hot paths therefore pay only
// a nil check when observability is off — the default — so replay and
// benchmark numbers are unperturbed.
//
// Components resolve their observer once at construction: an explicit
// observer in their options wins, otherwise the process default
// installed with SetDefault. Install the default before building
// evaluators, controllers, testbeds, or scenarios.
package obs

import (
	"context"
	"log/slog"
	"sync/atomic"

	"github.com/mistralcloud/mistral/internal/obs/tsdb"
)

// Observer bundles the three observability sinks threaded through the
// controller stack. Any field may be nil to disable that sink; a nil
// *Observer disables all three.
type Observer struct {
	// Metrics receives counters, gauges, and histograms.
	Metrics *Registry
	// Trace receives hierarchical virtual-time spans.
	Trace *Tracer
	// Log receives structured log records; nil means the no-op logger.
	Log *slog.Logger
	// Ops is the live controller-health surface served at /ops; nil
	// disables it.
	Ops *OpsState
	// History is the windowed telemetry store behind /v1/query, a view
	// the scenario engine publishes of its window logs; nil disables it.
	History *tsdb.Store
	// HTTPAddr is the bound address of the pprof/metrics/ops HTTP
	// server when one is running ("" otherwise). Informational only.
	HTTPAddr string
}

// HistoryStore returns the observer's telemetry history store, or nil (a
// valid disabled store).
func (o *Observer) HistoryStore() *tsdb.Store {
	if o == nil {
		return nil
	}
	return o.History
}

// Counter returns the named counter from the observer's registry, or nil
// (a valid no-op counter) when metrics are disabled.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge, or nil when metrics are disabled.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram with the given finite bucket
// bounds, or nil when metrics are disabled. The bounds of the first
// registration win.
func (o *Observer) Histogram(name string, bounds []float64) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, bounds)
}

// Logger returns the observer's logger, or the shared no-op logger.
func (o *Observer) Logger() *slog.Logger {
	if o == nil || o.Log == nil {
		return nopLogger
	}
	return o.Log
}

// Tracer returns the observer's tracer (possibly nil, a valid disabled
// tracer).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}

var defaultObserver atomic.Pointer[Observer]

// SetDefault installs the process-wide observer picked up by components
// whose options carry no explicit one. Pass nil to disable (the initial
// state). Components resolve the default once at construction, so
// install it before building them.
func SetDefault(o *Observer) { defaultObserver.Store(o) }

// Default returns the process-wide observer (nil when disabled).
func Default() *Observer { return defaultObserver.Load() }

// Resolve returns explicit when non-nil, otherwise the process default.
func Resolve(explicit *Observer) *Observer {
	if explicit != nil {
		return explicit
	}
	return Default()
}

// nopHandler discards every record. (slog.DiscardHandler only exists
// from Go 1.24; the module targets 1.22.)
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nopLogger = slog.New(nopHandler{})

// Nop returns the shared no-op logger. Its Enabled reports false for
// every level, so callers can gate expensive attribute computation.
func Nop() *slog.Logger { return nopLogger }
