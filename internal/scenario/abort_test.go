package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/guard"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/provenance"
)

// TestStepMeasureErrorBooksWindowOnly pins what a window whose measurement
// fails reaches. The test advances the testbed's clock behind the engine's
// back, so the engine's own MeasureWindow is refused: the window is booked
// — Result.Windows, cumulative utility with the search cost charged,
// provenance, the mean search time — and nothing that observes completed
// windows sees it: counters, gauge, history, SLO, ops, the breaker, the
// decider's feedback, and the engine's clock.
func TestStepMeasureErrorBooksWindowOnly(t *testing.T) {
	tb, util, traces, cat := setup(t)
	invoked := Decision{Invoked: true, SearchTime: 10 * time.Second, SearchCost: 0.25}
	// The third window's plan launches before its measurement is refused.
	launched := invoked
	launched.Plan = []cluster.Action{{Kind: cluster.ActionDecreaseCPU, VM: "rubis1-web-0", DeltaCPUPct: 10}}
	d := &scripted{name: "scripted", decisions: []Decision{invoked, invoked, launched}}
	ob := &obs.Observer{Metrics: obs.NewRegistry(), Ops: obs.NewOpsState(), History: tsdb.New(tsdb.Options{})}
	g := guard.New(guard.Config{}, cat)
	var prov bytes.Buffer
	e, err := NewEngine(tb, d, RunConfig{
		Traces: traces, Duration: 30 * time.Minute, Utility: util,
		Obs: ob, Guard: g, Provenance: provenance.NewRecorder(&prov),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cumBefore := e.Result().CumUtility
	if e.Result().MeanSearchTime != 0 {
		t.Fatalf("MeanSearchTime = %v before Close, want 0", e.Result().MeanSearchTime)
	}

	// One degraded window short of the breaker's threshold of four: the
	// aborted window reaching the breaker would open it.
	for i := 0; i < 3; i++ {
		g.ObserveWindow(true)
	}
	if _, err := tb.MeasureWindow(e.Now() + e.Interval()); err != nil {
		t.Fatal(err)
	}
	sr, err := e.Step()
	if err == nil || !strings.HasPrefix(err.Error(), "scenario: testbed: window end") {
		t.Fatalf("Step error = %v, want the testbed's refusal", err)
	}

	// Booked: the window log, the charge, provenance, the mean search time.
	res := e.Result()
	if sr.Index != 2 || len(res.Windows) != 3 {
		t.Fatalf("index %d, %d windows; want 2, 3", sr.Index, len(res.Windows))
	}
	last := res.Windows[2]
	if !reflect.DeepEqual(last, sr.Window) {
		t.Errorf("StepResult window %+v differs from the appended one %+v", sr.Window, last)
	}
	if !last.Degraded || !strings.HasPrefix(last.DegradedReason, "measure: testbed: window end") {
		t.Errorf("aborted window degraded=%v reason %q", last.Degraded, last.DegradedReason)
	}
	if !last.Invoked || last.SearchTime != 10*time.Second || last.Utility != -0.25 {
		t.Errorf("aborted window invoked=%v search=%v utility=%v, want true 10s -0.25", last.Invoked, last.SearchTime, last.Utility)
	}
	if last.Watts != 0 || last.RTSec != nil || last.ActiveHosts == 0 {
		t.Errorf("aborted window watts=%v rt=%v hosts=%d, want unmeasured with hosts set", last.Watts, last.RTSec, last.ActiveHosts)
	}
	if res.CumUtility != cumBefore-0.25 || last.CumUtility != res.CumUtility {
		t.Errorf("cum utility %v (window %v), want %v", res.CumUtility, last.CumUtility, cumBefore-0.25)
	}
	if res.Invocations != 3 || res.MeanSearchTime != 10*time.Second {
		t.Errorf("invocations %d mean search %v, want 3 10s", res.Invocations, res.MeanSearchTime)
	}
	if last.Actions != 1 || res.TotalActions != 1 {
		t.Errorf("actions %d (total %d), want the launched plan's 1", last.Actions, res.TotalActions)
	}
	var kwh, hostHours float64
	for _, w := range res.Windows[:2] {
		kwh += w.Watts * e.Interval().Hours() / 1000
		hostHours += float64(w.ActiveHosts) * e.Interval().Hours()
	}
	if res.DegradedWindows != 0 || res.EnergyKWh != kwh || res.HostHours != hostHours {
		t.Errorf("degraded windows %d, energy %v, host hours %v; want 0, %v, %v (the two completed windows)",
			res.DegradedWindows, res.EnergyKWh, res.HostHours, kwh, hostHours)
	}
	recs, err := provenance.ReadAll(&prov)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("provenance records = %d, want 3", len(recs))
	}
	if r := recs[2]; r.Window != 2 || !reflect.DeepEqual(r.Log, last) || !last.Aborted || r.Guard == nil || !r.Guard.Allowed {
		t.Errorf("aborted window's provenance record %+v", r)
	}

	// Not completed: the clock, the decider's feedback and every observer.
	if e.WindowIndex() != 2 || e.Now() != 2*e.Interval() {
		t.Errorf("engine advanced to window %d at %v", e.WindowIndex(), e.Now())
	}
	if len(d.windows) != 2 {
		t.Errorf("RecordWindow called %d times, want 2", len(d.windows))
	}
	for name, want := range map[string]int64{
		"scenario_windows_total":          2,
		"scenario_degraded_windows_total": 0,
	} {
		if got := ob.Metrics.CounterValue(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	snap := ob.Metrics.Snapshot()
	if got := snap.Gauges["scenario_cum_utility_dollars"]; got != cumBefore {
		t.Errorf("scenario_cum_utility_dollars = %v, want %v", got, cumBefore)
	}
	if got := snap.Histograms["scenario_window_utility_dollars"].Count; got != 2 {
		t.Errorf("window-utility histogram count = %d, want 2", got)
	}
	if got := ob.History.LastWindow(); got != 1 {
		t.Errorf("history last window = %d, want 1", got)
	}
	if got := e.SLO().Snapshot().Windows; got != 2 {
		t.Errorf("SLO windows = %d, want 2", got)
	}
	if ops := ob.Ops.Snapshot(); ops.Windows != 2 || ops.Window != 1 || ops.DegradedWindows != 0 {
		t.Errorf("ops windows=%d window=%d degraded=%d, want 2 1 0", ops.Windows, ops.Window, ops.DegradedWindows)
	}
	if g.Breaker() != guard.BreakerClosed {
		t.Errorf("breaker = %v, want closed", g.Breaker())
	}
}

// TestRestoreRefoldsAroundAbortedWindows: a window whose measurement failed
// is booked in Result.Windows, flagged Aborted, but never completed, so the
// views every reader folds from the window logs must skip it — both when
// the aborted window ends the run and when a daemon retried it and ran on.
// The engine restored from the checkpoint, and Fold over the checkpoint's
// logs and over the provenance stream's, answer the history digests and
// full query and the SLO report exactly as the live engine does, and the
// two offline /ops frames equal the restored engine's. A checkpoint whose
// aborted window lacks the flag is refused, and MeanWatts averages the
// completed windows only.
func TestRestoreRefoldsAroundAbortedWindows(t *testing.T) {
	for _, tc := range []struct {
		name  string
		after int // windows stepped after the aborted one
	}{{"aborted last", 0}, {"retried", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			tb, util, traces, _ := setup(t)
			d := &scripted{name: "scripted"}
			for i := 0; i < 8; i++ {
				d.decisions = append(d.decisions, Decision{
					Invoked: true, SearchTime: time.Duration(i+1) * time.Second,
					SearchCost: 0.01 * float64(i+1), Expansions: 10 * (i + 1),
				})
			}
			ob := &obs.Observer{Ops: obs.NewOpsState(), History: tsdb.New(tsdb.Options{})}
			var prov bytes.Buffer
			cfg := RunConfig{Traces: traces, Duration: 30 * time.Minute, Utility: util, Obs: ob, Provenance: provenance.NewRecorder(&prov)}
			e, err := NewEngine(tb, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if _, err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			// Move the testbed's clock past the window behind the engine's
			// back, so its measurement is refused; a daemon's retry finds
			// the testbed where it was.
			before, err := tb.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.MeasureWindow(e.Now() + e.Interval()); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Step(); err == nil {
				t.Fatal("the window's measurement was not refused")
			}
			if tc.after > 0 {
				if err := tb.Restore(before); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < tc.after; i++ {
				if _, err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			res := e.Result()
			if got, want := len(res.Windows), 3+tc.after; got != want {
				t.Fatalf("%d window logs, want %d", got, want)
			}
			var watts float64
			for i, w := range res.Windows {
				if w.Aborted != (i == 2) {
					t.Fatalf("window log %d aborted=%v", i, w.Aborted)
				}
				if !w.Aborted {
					watts += w.Watts
				}
			}
			if want := watts / float64(len(res.Windows)-1); res.MeanWatts() != want || want == 0 {
				t.Errorf("MeanWatts = %v, want the completed windows' %v", res.MeanWatts(), want)
			}

			recs, err := provenance.ReadAll(&prov)
			if err != nil {
				t.Fatal(err)
			}
			if err := provenance.CheckStream(recs); err != nil {
				t.Errorf("CheckStream refuses the stream: %v", err)
			}
			var streamLogs []WindowLog
			for _, r := range recs {
				streamLogs = append(streamLogs, r.Log)
			}

			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var restored Snapshot
			if err := json.Unmarshal(raw, &restored); err != nil {
				t.Fatal(err)
			}

			newObserver := func() *obs.Observer {
				return &obs.Observer{Ops: obs.NewOpsState(), History: tsdb.New(tsdb.Options{})}
			}
			restore := func(s *Snapshot) (*Engine, *obs.Observer, error) {
				tb2, _, _, _ := setup(t)
				ob2 := newObserver()
				cfg2 := cfg
				cfg2.Obs, cfg2.Provenance = ob2, nil
				e2, err := NewEngine(tb2, &scripted{name: "scripted"}, cfg2)
				if err != nil {
					t.Fatal(err)
				}
				return e2, ob2, e2.Restore(s)
			}

			// A pre-flag checkpoint: its aborted window counts as completed.
			unflagged := restored
			unflagged.Result = restored.Result.detached()
			unflagged.Result.Windows[2].Aborted = false
			if _, _, err := restore(&unflagged); err == nil || !strings.Contains(err.Error(), "completed windows") {
				t.Errorf("Restore of an unflagged aborted window = %v, want the completed-count refusal", err)
			}

			e2, ob2, err := restore(&restored)
			if err != nil {
				t.Fatal(err)
			}
			view := func(h *tsdb.Store) []byte {
				q, err := h.Query(h.Names(), 0, -1)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal([]any{h.Summaries(opsSparkN), q})
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			opsDoc := func(o *obs.Observer) obs.OpsSnapshot {
				doc := o.Ops.Snapshot()
				doc.UpdatedUnixMS = 0
				return doc
			}
			asJSON := func(v any) []byte {
				b, err := json.Marshal(v)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			live, liveSLO := view(ob.History), asJSON(e.SLO().Snapshot())
			restoredOps := asJSON(opsDoc(ob2))
			if got := view(ob2.History); !bytes.Equal(live, got) {
				t.Errorf("restored history differs from the live one:\nlive:     %s\nrestored: %s", live, got)
			}
			if got := asJSON(e2.SLO().Snapshot()); !bytes.Equal(liveSLO, got) {
				t.Errorf("restored SLO report differs from the live one:\nlive:     %s\nrestored: %s", liveSLO, got)
			}
			for _, off := range []struct {
				name string
				logs []WindowLog
			}{{"checkpoint", restored.Result.Windows}, {"stream", streamLogs}} {
				o := newObserver()
				Fold(o, "scripted", off.logs)
				if got := view(o.History); !bytes.Equal(live, got) {
					t.Errorf("%s: folded history differs from the live one:\nlive:   %s\nfolded: %s", off.name, live, got)
				}
				doc := opsDoc(o)
				if !bytes.Equal(doc.SLO, liveSLO) {
					t.Errorf("%s: folded SLO report differs from the live one:\nlive:   %s\nfolded: %s", off.name, liveSLO, doc.SLO)
				}
				if got := asJSON(doc); !bytes.Equal(restoredOps, got) {
					t.Errorf("%s: folded /ops differs from the restored engine's:\nrestored: %s\nfolded:   %s", off.name, restoredOps, got)
				}
			}
			if got, want := ob.History.LastWindow(), 1+tc.after; got != want {
				t.Errorf("live history through window %d, want %d", got, want)
			}
		})
	}
}
