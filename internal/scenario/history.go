package scenario

import "github.com/mistralcloud/mistral/internal/obs/tsdb"

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

// observeHistory folds one completed window into the history store.
//
// The expansions series is the window's delta of the cumulative registry
// counter. The invariant is histBase == the counter's value when the
// previous window was folded (or when the engine began, or was restored),
// so the delta covers exactly this window regardless of what the registry
// held before this engine.
func (e *Engine) observeHistory(w *window) {
	if e.hist == nil {
		return
	}
	expD := w.expansions - e.histBase
	e.histBase = w.expansions

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
		e.hist.Append("decide_wall_ms", tsdb.ClassWall, w.index, float64(w.decideWall.Microseconds())/1000)
	}
}
