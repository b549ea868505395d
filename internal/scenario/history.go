package scenario

import (
	"time"

	"github.com/mistralcloud/mistral/internal/obs/tsdb"
)

// The telemetry history plane is a view of Result.Windows: every completed
// window's log folds into the engine's tsdb store, keyed by window index,
// and a restore rebuilds the store by folding the checkpoint's windows
// again. The fold reads only the window log, so decisions, provenance
// bytes and stdout are untouched — history is a pure observer.

// opsSparkN is how many trailing raw values the /ops history digests
// carry as sparkline vectors.
const opsSparkN = 32

// fold appends one completed window's series to the store.
func fold(s *tsdb.Store, index int, w *WindowLog) {
	if s == nil {
		return
	}
	app := func(name string, v float64) { s.Append(name, index, v) }
	app("utility", w.Utility)
	app("cum_utility", w.CumUtility)
	app("watts", w.Watts)
	app("search_cost", w.SearchCost)
	app("search_time_sec", w.SearchTime.Seconds())
	app("active_hosts", float64(w.ActiveHosts))
	app("actions", float64(w.Actions))
	app("degraded", float64(b2i(w.Degraded)))
	app("retries", float64(w.Retried))
	app("failed_actions", float64(w.FailedActions))
	app("host_crashes", float64(w.HostCrashes))
	app("guard_rejected", float64(b2i(w.GuardRejected)))
	app("expansions", float64(w.Expansions))
}

// refold rebuilds the store from a run's window logs, as of virtual time
// now. A window whose measurement failed is booked in the logs but was
// never folded, and the engine's clock did not pass it: the window after it
// ends at the same time, or, when it is the last log, it ends after now.
// Skipping those, the k-th window kept is window k.
func refold(s *tsdb.Store, windows []WindowLog, now time.Duration) {
	s.Reset()
	k := 0
	for i := range windows {
		w := &windows[i]
		if i+1 < len(windows) && windows[i+1].Time == w.Time || w.Time > now {
			continue
		}
		fold(s, k, w)
		k++
	}
}

// History rebuilds the telemetry history the checkpointed run had folded,
// from its window logs: the store mistral-explain -series reads. It works
// on every checkpoint, including those written without observability.
func (s *Snapshot) History() *tsdb.Store {
	h := tsdb.New(tsdb.Options{})
	if s.Result != nil {
		refold(h, s.Result.Windows, time.Duration(s.TimeNS))
	}
	return h
}
