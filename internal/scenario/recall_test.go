package scenario

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/slo"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
)

// recallEnv is an engine whose observers are fed hand-built window records
// straight through publish: the SLO engine's inputs are the record's
// fields, so a fault is injected by writing one.
type recallEnv struct{ e *Engine }

func newRecallEnv(t *testing.T) *recallEnv {
	t.Helper()
	tb, util, traces, _ := setup(t)
	ob := &obs.Observer{Metrics: obs.NewRegistry(), History: tsdb.New(tsdb.Options{})}
	e, err := NewEngine(tb, &scripted{name: "recall"}, RunConfig{Traces: traces, Utility: util, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	e.views.begin()
	return &recallEnv{e: e}
}

// healthy builds the next window's record: an invoked, undegraded decision
// with a 2 s search.
func (r *recallEnv) healthy() *window {
	e := r.e
	w := &window{index: e.WindowIndex(), tc: obs.WindowTrace(e.WindowIndex())}
	w.Time = e.t + e.cfg.Interval
	w.Invoked, w.SearchTime = true, 2*time.Second
	w.Utility, w.Watts = 0.30, 400
	w.CumUtility = e.res.CumUtility + w.Utility
	return w
}

// publishUntil publishes up to limit records shaped by inject and returns
// after how many fired reports true, or -1.
func (r *recallEnv) publishUntil(limit int, inject func(w *window), fired func() bool) int {
	for k := 1; k <= limit; k++ {
		w := r.healthy()
		inject(w)
		r.e.publish(w)
		if fired() {
			return k
		}
	}
	return -1
}

// warm publishes n healthy windows and fails if anything fired on them.
func (r *recallEnv) warm(t *testing.T, n int) {
	t.Helper()
	r.publishUntil(n, func(*window) {}, func() bool { return false })
	if n := r.e.SLO().Snapshot().TotalAlerts; n != 0 {
		t.Fatalf("healthy baseline raised %d SLO alerts", n)
	}
}

// TestSLORecall breaches every objective through the record fields it
// reads, after 40 healthy windows. The first breaching window raises the
// objective's warn alert; a sustained breach pages once the breaching
// fraction of the objective's measurable windows passes its budget and at
// least 16 of them (the burn window) have been seen — pageWithin further
// breaching windows, which follows from the budget alone.
func TestSLORecall(t *testing.T) {
	for _, ob := range []struct {
		name       string
		breach     func(w *window)
		pageWithin int
	}{
		// budget M/4 = 30 s, 10 % of invoked windows
		{"decide-latency", func(w *window) { w.SearchTime = 40 * time.Second }, 4},
		// 5 % of windows
		{"degraded-burn", func(w *window) { w.degrade("injected") }, 2},
		// 25 % of guard-checked windows, and the healthy ones had no plan
		// to check: the 16th measurable window pages
		{"guard-reject", func(w *window) {
			w.GuardChecked, w.GuardRejected = true, true
		}, 15},
	} {
		t.Run(ob.name, func(t *testing.T) {
			r := newRecallEnv(t)
			r.warm(t, 40)
			alerted := func(severity string) func() bool {
				return func() bool {
					for _, a := range r.e.SLO().Snapshot().Alerts {
						if a.Objective == ob.name && a.Severity == severity {
							return true
						}
					}
					return false
				}
			}
			if got := r.publishUntil(4, ob.breach, alerted(slo.SeverityWarn)); got != 1 {
				t.Fatalf("%s warned after %d breaching windows, want 1", ob.name, got)
			}
			if got := r.publishUntil(ob.pageWithin, ob.breach, alerted(slo.SeverityPage)); got != ob.pageWithin {
				t.Errorf("%s paged after %d further breaching windows, want %d", ob.name, got, ob.pageWithin)
			}
			for _, a := range r.e.SLO().Snapshot().Alerts {
				if a.Objective != ob.name {
					t.Errorf("breaching %s also alerted %s: %s", ob.name, a.Objective, a.Message)
				}
			}
		})
	}
}
