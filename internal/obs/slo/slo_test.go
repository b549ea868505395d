package slo

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/obs"
)

// windows synthesizes a deterministic observation stream: mostly
// healthy, with latency breaches and degraded windows at fixed indices.
func windows(n int) []WindowObs {
	var out []WindowObs
	for i := 0; i < n; i++ {
		w := WindowObs{
			Window:     i,
			Time:       time.Duration(i) * 2 * time.Minute,
			Invoked:    i%4 != 3,
			SearchTime: 5 * time.Second,
		}
		if i%7 == 2 {
			w.SearchTime = 45 * time.Second // breaches the 30s budget
		}
		if i%11 == 5 {
			w.Degraded = true
		}
		out = append(out, w)
	}
	return out
}

// TestEngineDeterminism is the contract the package doc promises: two
// engines fed the same observation stream produce deeply equal
// snapshots — same breaches, budgets, burn rates, and alert rings.
func TestEngineDeterminism(t *testing.T) {
	run := func() Snapshot {
		e := New(0, nil)
		for _, w := range windows(100) {
			e.ObserveWindow(w)
		}
		return e.Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical streams diverged:\n%+v\n%+v", a, b)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("serialized snapshots differ")
	}
	if a.Schema != Schema || a.Windows != 100 || len(a.Objectives) != 3 {
		t.Fatalf("snapshot shape %+v", a)
	}
}

// TestDecideLatencyObjective pins the budget accounting on the latency
// objective: breaches only on invoked windows over the 30 s budget (a
// quarter of the 2 min interval), warn alerts per breach, and a single
// page once the 10 % error budget exhausts.
func TestDecideLatencyObjective(t *testing.T) {
	e := New(2*time.Minute, nil)
	var pages, warns int
	for i := 0; i < 20; i++ {
		w := WindowObs{Window: i, Invoked: true, SearchTime: 5 * time.Second}
		if i < 3 {
			w.SearchTime = time.Minute // breach 3 of 20
		}
		for _, a := range e.ObserveWindow(w) {
			if a.Objective != "decide-latency" {
				continue
			}
			switch a.Severity {
			case SeverityWarn:
				warns++
			case SeverityPage:
				pages++
			}
			if a.Trace != obs.TraceID(a.Window) {
				t.Fatalf("alert trace %q for window %d", a.Trace, a.Window)
			}
		}
	}
	if warns != 3 {
		t.Fatalf("%d warns, want 3", warns)
	}
	// 3 breaches vs a budget of 0.10*N: exhausted well before window 20,
	// and the page must fire exactly once.
	if pages != 1 {
		t.Fatalf("%d pages, want 1", pages)
	}
	var st *ObjectiveState
	snap := e.Snapshot()
	for i := range snap.Objectives {
		if snap.Objectives[i].Name == "decide-latency" {
			st = &snap.Objectives[i]
		}
	}
	if st == nil || st.Healthy || st.Breaches != 3 || st.Windows != 20 {
		t.Fatalf("state %+v", st)
	}
	if st.LastBreachWindow != 2 || st.LastBreachTrace != "w000002" {
		t.Fatalf("last breach %d %q", st.LastBreachWindow, st.LastBreachTrace)
	}
	if st.BudgetUsed <= 1 {
		t.Fatalf("budget used %v, want >1 (exhausted)", st.BudgetUsed)
	}
}

// TestAlertRingCap bounds the in-memory ring while TotalAlerts keeps
// the true count.
func TestAlertRingCap(t *testing.T) {
	const n = alertCap + 36
	e := New(0, nil)
	for i := 0; i < n; i++ {
		e.ObserveWindow(WindowObs{Window: i, Degraded: true})
	}
	s := e.Snapshot()
	if len(s.Alerts) != alertCap {
		t.Fatalf("ring %d, want %d", len(s.Alerts), alertCap)
	}
	if s.TotalAlerts < n {
		t.Fatalf("total %d, want >=%d", s.TotalAlerts, n)
	}
	// The ring keeps the most recent alerts.
	if got := s.Alerts[len(s.Alerts)-1].Window; got != n-1 {
		t.Fatalf("newest ring alert window %d", got)
	}
}

// TestNilEngine proves the disabled engine is inert.
func TestNilEngine(t *testing.T) {
	var e *Engine
	if e.ObserveWindow(WindowObs{}) != nil {
		t.Fatal("nil engine fired alerts")
	}
	s := e.Snapshot()
	if s.Schema != Schema || s.Objectives == nil || s.Alerts == nil {
		t.Fatalf("nil snapshot %+v", s)
	}
}
