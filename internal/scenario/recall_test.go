package scenario

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/slo"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/sim"
)

// recallEnv is an engine whose observers are fed hand-built window records
// straight through publish: the detectors' and the SLO engine's inputs are
// the record's fields, so a fault is injected by writing one.
type recallEnv struct {
	e   *Engine
	reg *obs.Registry
	rng *sim.RNG
	// The healthy baseline the records jitter around, and its noise scale
	// (the standard deviation of each sample, as a fraction of the level).
	utility, watts, expansions float64
	noise                      float64
	// cumulative search_expansions_total, as measure would have read it
	cum int64
}

func newRecallEnv(t *testing.T) *recallEnv {
	t.Helper()
	tb, util, traces, _ := setup(t)
	ob := &obs.Observer{Metrics: obs.NewRegistry(), History: tsdb.New(tsdb.Options{})}
	e, err := NewEngine(tb, &scripted{name: "recall"}, RunConfig{Traces: traces, Utility: util, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	e.begin()
	return &recallEnv{e: e, reg: ob.Metrics, rng: sim.NewRNG(7, 7),
		utility: 0.30, watts: 400, expansions: 1200, noise: 0.01}
}

// healthy builds the next window's record at the baseline: an invoked,
// undegraded decision with a 2 s search and 1200 expansions, and a 10 ms
// decide.
func (r *recallEnv) healthy() *window {
	e := r.e
	jitter := func(level float64) float64 { return level * (1 + r.rng.Normal(0, r.noise)) }
	w := &window{index: e.winIdx, tc: obs.WindowTrace(e.winIdx)}
	w.Time = e.t + e.cfg.Interval
	w.Invoked, w.SearchTime = true, 2*time.Second
	w.Utility, w.Watts = jitter(r.utility), jitter(r.watts)
	w.CumUtility = e.res.CumUtility + w.Utility
	w.decideWall = time.Duration(jitter(10) * float64(time.Millisecond))
	r.cum += int64(jitter(r.expansions))
	w.expansions = r.cum
	return w
}

// publishUntil publishes up to limit records shaped by inject (called with
// the number of windows since the fault began) and returns after how many
// fired reports true, or -1.
func (r *recallEnv) publishUntil(limit int, inject func(k int, w *window), fired func() bool) int {
	for k := 1; k <= limit; k++ {
		w := r.healthy()
		inject(k, w)
		r.e.publish(w)
		if fired() {
			return k
		}
	}
	return -1
}

func (r *recallEnv) anomalies() int64 { return r.reg.CounterValue("history_anomalies_total") }

// warm publishes n healthy windows and fails if anything fired on them.
func (r *recallEnv) warm(t *testing.T, n int) {
	t.Helper()
	r.publishUntil(n, func(int, *window) {}, func() bool { return false })
	if r.anomalies() != 0 || r.reg.CounterValue("history_wall_drift_total") != 0 || r.e.slo.Snapshot().TotalAlerts != 0 {
		t.Fatalf("healthy baseline raised %d anomalies, %d wall drifts, %d SLO alerts",
			r.anomalies(), r.reg.CounterValue("history_wall_drift_total"), r.e.slo.Snapshot().TotalAlerts)
	}
}

// TestDetectorRecall injects faults into the record fields the median/MAD
// detector and the wall EWMA read — a level shift and a creep in each of
// utility, watts and expansions, and a jump in decide wall time — and states
// within how many windows each is flagged after a quiet 40-window baseline
// with 1 % noise.
func TestDetectorRecall(t *testing.T) {
	series := map[string]func(w *window, r *recallEnv, factor float64){
		"utility": func(w *window, r *recallEnv, f float64) { w.Utility = r.utility * f },
		"watts":   func(w *window, r *recallEnv, f float64) { w.Watts = r.watts * f },
		"expansions": func(w *window, r *recallEnv, f float64) {
			// The record carries the cumulative counter; the fold diffs it
			// against the previous window's.
			r.cum = r.e.histBase + int64(r.expansions*f)
			w.expansions = r.cum
		},
	}
	for name, set := range series {
		// A 20 % level shift is ≈ 30 baseline MADs: flagged in the window it
		// lands in.
		t.Run(name+"/level-shift", func(t *testing.T) {
			r := newRecallEnv(t)
			r.warm(t, 40)
			got := r.publishUntil(8, func(_ int, w *window) { set(w, r, 0.8) }, func() bool { return r.anomalies() > 0 })
			if got != 1 {
				t.Errorf("20%% level shift in %s flagged after %d windows, want 1", name, got)
			}
		})
		// A creep of 1 % of the level per window is one noise σ a window: the
		// robust z grows by about one a window, less what the creeping
		// samples add to the baseline's MAD, and crosses the threshold of 6
		// before the creep fills half the 32-window baseline and the median
		// starts to follow it.
		t.Run(name+"/creep", func(t *testing.T) {
			r := newRecallEnv(t)
			r.warm(t, 40)
			got := r.publishUntil(32, func(k int, w *window) { set(w, r, 1-0.01*float64(k)) }, func() bool { return r.anomalies() > 0 })
			if got < 0 || got > 16 {
				t.Errorf("1%%/window creep in %s flagged after %d windows, want within 16", name, got)
			}
		})
	}
	// The wall EWMA floors its deviation at 5 ms and pages at 8 deviations:
	// a decide that jumps from 10 ms to 100 ms is flagged at once.
	t.Run("decide_wall_ms/drift", func(t *testing.T) {
		r := newRecallEnv(t)
		r.warm(t, 40)
		got := r.publishUntil(8, func(_ int, w *window) { w.decideWall = 100 * time.Millisecond },
			func() bool { return r.reg.CounterValue("history_wall_drift_total") > 0 })
		if got != 1 {
			t.Errorf("10× decide wall time flagged after %d windows, want 1", got)
		}
		if r.anomalies() != 0 {
			t.Errorf("wall drift reached the deterministic anomaly count (%d)", r.anomalies())
		}
	})
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
		breach     func(w *window, r *recallEnv)
		pageWithin int
	}{
		// budget M/4 = 30 s, 10 % of invoked windows
		{"decide-latency", func(w *window, _ *recallEnv) { w.SearchTime = 40 * time.Second }, 4},
		// 5 % of windows
		{"degraded-burn", func(w *window, _ *recallEnv) { w.degrade("injected") }, 2},
		// 25 % of guard-checked windows, and the healthy ones had no plan
		// to check: the 16th measurable window pages
		{"guard-reject", func(w *window, _ *recallEnv) {
			w.guard, w.GuardRejected = &provenance.GuardProv{Rule: "injected"}, true
		}, 15},
		// A shift that persists becomes the rolling baseline — the
		// detector's design — so this objective cannot be held in breach.
		{"history-anomaly", func(w *window, r *recallEnv) { w.Utility = r.utility * 0.5 }, 0},
	} {
		t.Run(ob.name, func(t *testing.T) {
			r := newRecallEnv(t)
			r.warm(t, 40)
			alerted := func(severity string) func() bool {
				return func() bool {
					for _, a := range r.e.slo.Snapshot().Alerts {
						if a.Objective == ob.name && a.Severity == severity {
							return true
						}
					}
					return false
				}
			}
			inject := func(_ int, w *window) { ob.breach(w, r) }
			if got := r.publishUntil(4, inject, alerted(slo.SeverityWarn)); got != 1 {
				t.Fatalf("%s warned after %d breaching windows, want 1", ob.name, got)
			}
			if ob.pageWithin == 0 {
				return
			}
			if got := r.publishUntil(ob.pageWithin, inject, alerted(slo.SeverityPage)); got != ob.pageWithin {
				t.Errorf("%s paged after %d further breaching windows, want %d", ob.name, got, ob.pageWithin)
			}
			for _, a := range r.e.slo.Snapshot().Alerts {
				if a.Objective != ob.name {
					t.Errorf("breaching %s also alerted %s: %s", ob.name, a.Objective, a.Message)
				}
			}
		})
	}
}
