package scenario

import (
	"encoding/json"
	"time"

	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/slo"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
)

// Every view of a run — the SLO engine, the telemetry history (a read-only
// view of the logs in the tsdb store) and the /ops frame — is a fold over its
// window logs. One fold step, views.add, serves the live engine window by
// window, Restore over a checkpoint's logs, and Fold over the logs of a
// checkpoint or a provenance stream, so a view reads the same live, restored
// and offline. The views only read the logs: they are pure observers.

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

// views is the fold's state: the planes it publishes to and what it has
// folded so far.
type views struct {
	strategy string
	interval time.Duration
	slo      *slo.Engine
	ops      *obs.OpsState
	hist     *tsdb.Store
	begun    bool // the fold has taken over the planes (see begin)

	// windows are the logs folded so far, aborted ones included; skip holds
	// the positions of the aborted ones, ascending.
	windows []WindowLog
	skip    []int
	// The /ops run totals, counted as Result counts them: degraded windows
	// over completed windows, the rest over every log.
	degraded, decideErrors, retries, hostCrashes int
}

func newViews(o *obs.Observer, strategy string, interval time.Duration) *views {
	v := &views{strategy: strategy, interval: interval, ops: o.OpsState(), hist: o.HistoryStore()}
	if o != nil {
		v.slo = slo.New(interval, o)
	}
	return v
}

// begin takes over the observer's per-run planes: the ops surface and the
// history store re-begin (sequential runs over a shared observer each start
// empty). The engine begins when it first steps, not at construction, and
// Restore once it can no longer fail — so an engine built beside a running
// one, for a restore that may still be refused, leaves what the running one
// publishes untouched.
func (v *views) begin() {
	if v.begun {
		return
	}
	v.begun = true
	v.ops.BeginRun(v.strategy, v.interval)
	v.publishHistory()
}

func (v *views) completed() int { return len(v.windows) - len(v.skip) }

// add folds windows' last log, the run's next, and returns the alerts the
// SLO engine raised. windows are the run's logs so far; the history reads
// them, so the caller never writes them again. An aborted log counts toward
// the run totals only.
func (v *views) add(windows []WindowLog) []slo.Alert {
	v.windows = windows
	w := &windows[len(windows)-1]
	v.decideErrors += b2i(w.DecideError)
	v.retries += w.Retried
	v.hostCrashes += w.HostCrashes
	if w.Aborted {
		v.skip = append(v.skip, len(windows)-1)
		return nil
	}
	v.degraded += b2i(w.Degraded)
	return v.slo.ObserveWindow(slo.WindowObs{
		Window:        v.completed() - 1,
		Time:          w.Time,
		Invoked:       w.Invoked,
		Degraded:      w.Degraded,
		SearchTime:    w.SearchTime,
		GuardChecked:  w.GuardChecked,
		GuardRejected: w.GuardRejected,
	})
}

// publish publishes the views through the last completed window: the
// history store, then /ops. wall is that window's decide wall time, which
// only a live publish knows; a restored publish ranks no slowest window.
func (v *views) publish(wall time.Duration, restored bool) {
	v.publishHistory()
	// An ops plane implies an observer, and with it the SLO engine.
	k := v.completed()
	if v.ops == nil || k == 0 {
		return
	}
	last := completed(v.windows, v.skip, k-1)
	v.ops.RecordWindow(obs.OpsWindow{
		Window:          k - 1,
		TimeSec:         last.Time.Seconds(),
		CumUtility:      last.CumUtility,
		Degraded:        last.Degraded,
		WallMS:          float64(wall.Microseconds()) / 1000,
		SearchTimeSec:   last.SearchTime.Seconds(),
		DegradedWindows: v.degraded,
		DecideErrors:    v.decideErrors,
		Retries:         v.retries,
		HostCrashes:     v.hostCrashes,
		Restored:        restored,
	})
	if raw, err := json.Marshal(v.slo.Snapshot()); err == nil {
		v.ops.SetSLO(raw)
	}
	v.ops.SetHistory(v.hist.Summaries(opsSparkN))
}

// refold folds every log, then begins and publishes once, as restored.
func (v *views) refold(windows []WindowLog) {
	for i := range windows {
		v.add(windows[:i+1])
	}
	v.begin()
	v.publish(0, true)
}

// Fold folds a run's window logs — a checkpoint's Result.Windows, or the
// logs of a provenance stream's run — into the observer's planes as Restore
// does, and returns the SLO engine it folded: the ops plane then holds the
// /ops frame that an engine restored from those logs publishes, and the
// history store its telemetry history. The monitoring interval is read from
// the logs: completed window k ends at (k+1)·interval, so the first log,
// completed or aborted, ends at one.
func Fold(o *obs.Observer, strategy string, windows []WindowLog) *slo.Engine {
	var interval time.Duration
	if len(windows) > 0 {
		interval = windows[0].Time
	}
	v := newViews(o, strategy, interval)
	v.refold(windows)
	return v.slo
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

// publishHistory publishes the completed windows to the store. The logs
// folded so far are never written again, so the store's readers may read
// them while the engine appends past them.
func (v *views) publishHistory() {
	if v.hist == nil {
		return // and build no closure for it
	}
	windows, skip := v.windows, v.skip
	v.hist.Publish(seriesNames, v.completed(), func(col, row int) float64 {
		return series[col].value(completed(windows, skip, row))
	})
}
