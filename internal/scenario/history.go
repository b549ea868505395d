package scenario

import (
	"time"

	"github.com/mistralcloud/mistral/internal/obs/slo"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
)

// The telemetry history and the SLO engine are views of Result.Windows:
// the engine publishes the completed windows to the tsdb store as a
// read-only view, and a restore refolds the SLO engine from the checkpoint's
// window logs. Both read only the window logs, so decisions, provenance
// bytes and stdout are untouched — they are pure observers.

// opsSparkN is how many trailing raw values the /ops history digests
// carry as sparkline vectors.
const opsSparkN = 32

// series are the history's columns, in name order: each reads one field of
// a completed window's log.
var series = []struct {
	name  string
	value func(*WindowLog) float64
}{
	{"actions", func(w *WindowLog) float64 { return float64(w.Actions) }},
	{"active_hosts", func(w *WindowLog) float64 { return float64(w.ActiveHosts) }},
	{"cum_utility", func(w *WindowLog) float64 { return w.CumUtility }},
	{"degraded", func(w *WindowLog) float64 { return float64(b2i(w.Degraded)) }},
	{"expansions", func(w *WindowLog) float64 { return float64(w.Expansions) }},
	{"failed_actions", func(w *WindowLog) float64 { return float64(w.FailedActions) }},
	{"guard_rejected", func(w *WindowLog) float64 { return float64(b2i(w.GuardRejected)) }},
	{"host_crashes", func(w *WindowLog) float64 { return float64(w.HostCrashes) }},
	{"retries", func(w *WindowLog) float64 { return float64(w.Retried) }},
	{"search_cost", func(w *WindowLog) float64 { return w.SearchCost }},
	{"search_time_sec", func(w *WindowLog) float64 { return w.SearchTime.Seconds() }},
	{"utility", func(w *WindowLog) float64 { return w.Utility }},
	{"watts", func(w *WindowLog) float64 { return w.Watts }},
}

var seriesNames = func() []string {
	names := make([]string, len(series))
	for i, s := range series {
		names[i] = s.name
	}
	return names
}()

// aborted returns the positions, ascending, of the windows whose
// measurement failed, as of virtual time now. Such a window is booked in the
// logs but never completed, and the engine's clock did not pass it: the
// window after it ends at the same time, or, when it is the last log, it
// ends after now.
func aborted(windows []WindowLog, now time.Duration) []int {
	var skip []int
	for i := range windows {
		if i+1 < len(windows) && windows[i+1].Time == windows[i].Time || windows[i].Time > now {
			skip = append(skip, i)
		}
	}
	return skip
}

// completed returns the log of completed window k: the k-th log that is
// not at one of the aborted positions skip.
func completed(windows []WindowLog, skip []int, k int) *WindowLog {
	for _, p := range skip {
		if p > k {
			break
		}
		k++
	}
	return &windows[k]
}

// publishHistory publishes the completed windows to the store. The logs up
// to len(windows) are never written again, so the store's readers may read
// them while the engine appends past them.
func publishHistory(h *tsdb.Store, windows []WindowLog, skip []int) {
	if h == nil {
		return
	}
	h.Publish(seriesNames, len(windows)-len(skip), func(col, row int) float64 {
		return series[col].value(completed(windows, skip, row))
	})
}

// sloObs is completed window k as the SLO engine observes it.
func sloObs(k int, w *WindowLog) slo.WindowObs {
	return slo.WindowObs{
		Window:        k,
		Time:          w.Time,
		Invoked:       w.Invoked,
		Degraded:      w.Degraded,
		SearchTime:    w.SearchTime,
		GuardChecked:  w.GuardChecked,
		GuardRejected: w.GuardRejected,
	}
}

// History is the telemetry history of the checkpointed run, read from its
// window logs: the store mistral-explain -series reads. It works on every
// checkpoint, including those written without observability.
func (s *Snapshot) History() *tsdb.Store {
	h := tsdb.New(tsdb.Options{})
	if s.Result != nil {
		publishHistory(h, s.Result.Windows, aborted(s.Result.Windows, time.Duration(s.TimeNS)))
	}
	return h
}
