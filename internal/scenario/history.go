package scenario

import (
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
)

// The telemetry history plane: every completed window folds a canonical
// sample set into the engine's tsdb store, keyed by window index. The
// fold reads only values already computed for the window log, the
// provenance record, and the registry, so decisions, provenance bytes,
// and stdout are untouched — history is a pure observer.
//
// Series classes follow the checkpoint discipline: everything below is
// ClassVirtual (deterministic at a fixed seed) except decide_wall_ms,
// which is explicitly ClassWall.

// opsSparkN is how many trailing raw values the /ops history digests
// carry as sparkline vectors.
const opsSparkN = 32

// observeHistory folds one completed window into the history store and
// scores it for anomalies. It reports whether the window was checked and
// how many virtual series the detector flagged — the inputs of the SLO
// engine's history-anomaly objective. Wall-clock drift verdicts surface
// as warnings and a counter only; they never reach deterministic state.
//
// The expansions series is the window's delta of the cumulative registry
// counter. The invariant is histBase == the counter's value when the
// previous window was folded (or when the engine began, or was restored),
// so the delta covers exactly this window regardless of what the registry
// held before this engine.
func (e *Engine) observeHistory(w *window) (checked bool, anomalies int) {
	if e.hist == nil {
		return false, 0
	}
	expD := w.expansions - e.histBase
	e.histBase = w.expansions

	// The continuous virtual series are scored with a rolling median/MAD
	// z-score, before appending: the baseline is strictly prior windows.
	// Flag-like series (degraded, guard_rejected, ...) are excluded by
	// design: their baselines are flat and carry no robust scale.
	for _, s := range []struct {
		name  string
		value float64
	}{{"utility", w.Utility}, {"watts", w.Watts}, {"expansions", float64(expD)}} {
		a := e.det.ScoreVirtual(e.hist, s.name, w.index, s.value)
		if a == nil {
			continue
		}
		anomalies++
		e.cAnomalies.Inc()
		e.o.Tracer().Event("history:anomaly", w.Time, w.Time, w.tc.Attr(),
			obs.Attr{Key: "span", Value: w.tc.SpanID("history", a.Series)},
			obs.Attr{Key: "series", Value: a.Series},
			obs.Attr{Key: "kind", Value: a.Kind},
			obs.Attr{Key: "value", Value: a.Value},
			obs.Attr{Key: "score", Value: a.Score},
			obs.Attr{Key: "baseline", Value: a.Baseline})
		e.olog.Warn("history anomaly",
			"trace", w.tc.ID(),
			"series", a.Series,
			"kind", a.Kind,
			"value", a.Value,
			"score", a.Score,
			"baseline", a.Baseline)
	}

	app := func(name string, v float64) { e.hist.Append(name, tsdb.ClassVirtual, w.index, v) }
	app("utility", w.Utility)
	app("cum_utility", w.CumUtility)
	app("watts", w.Watts)
	app("search_cost", w.searchCost)
	app("search_time_sec", w.SearchTime.Seconds())
	app("active_hosts", float64(w.ActiveHosts))
	app("actions", float64(w.Actions))
	app("degraded", float64(b2i(w.Degraded)))
	app("retries", float64(w.Retried))
	app("failed_actions", float64(w.FailedActions))
	app("host_crashes", float64(w.HostCrashes))
	app("guard_rejected", float64(b2i(w.GuardRejected)))
	app("breaker_state", float64(e.cfg.Guard.Breaker()))
	app("expansions", float64(expD))

	// Wall-clock decide latency: busy windows ran no decide, so the
	// series only carries windows where a measurement exists.
	if !w.busy {
		ms := float64(w.decideWall.Microseconds()) / 1000
		e.hist.Append("decide_wall_ms", tsdb.ClassWall, w.index, ms)
		if a := e.det.ScoreWall("decide_wall_ms", w.index, ms); a != nil {
			e.cWallDrift.Inc()
			e.olog.Warn("decide wall-latency drift",
				"trace", w.tc.ID(),
				"wall_ms", a.Value,
				"score", a.Score,
				"ewma_ms", a.Baseline)
		}
	}
	return true, anomalies
}
