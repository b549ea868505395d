// Package slo is Mistral's self-monitoring engine: declarative service
// level objectives over what the controller delivers — decision latency
// budget per window, degraded-window burn rate, guard-reject rate —
// evaluated online with SRE-style error budget accounting.
//
// Determinism is a design constraint, not an accident: every input the
// engine folds into its state is virtual-time or a deterministic flag
// (search time on the simulation clock, degraded and guard flags).
// Wall-clock latency never enters; only the /ops slowest-windows board
// reports it. Two runs with the same seed produce byte-identical
// Snapshots, which the determinism test asserts.
package slo

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/mistralcloud/mistral/internal/obs"
)

// Schema versions the Snapshot JSON for consumers (ops plane,
// mistral-explain, CI golden-schema validation).
const Schema = "mistral.slo/v1"

// Severity levels for alerts.
const (
	// SeverityWarn marks a single objective breach.
	SeverityWarn = "warn"
	// SeverityPage marks an exhausted error budget — the objective has
	// breached more often than its budget allows.
	SeverityPage = "page"
)

// The objectives' thresholds and budgets. The decide budget is a quarter of
// the monitoring interval (decideBudgetDefault when the interval is unset).
const (
	decideBudgetDefault = 30 * time.Second
	// decideBudgetFrac is the allowed fraction of invoked windows whose
	// decide (search+plan on the simulation clock) exceeds the budget.
	decideBudgetFrac = 0.10
	// degradedFrac is the allowed fraction of windows that may run
	// degraded (fallback decisions).
	degradedFrac = 0.05
	// guardRejectFrac is the allowed fraction of guard-checked windows
	// whose plan the admission guard rejected. A guard that refuses most
	// plans means the controller and the safety envelope disagree — the
	// run is technically safe but no longer adapting.
	guardRejectFrac = 0.25
	// burnWindows is the trailing-window span for burn-rate estimation.
	burnWindows = 16
	// alertCap bounds the in-memory alert ring.
	alertCap = 64
)

// WindowObs is one completed monitoring window's observations. All
// fields are virtual-time or deterministic counts.
type WindowObs struct {
	// Window is the 0-based window index (the trace identity).
	Window int
	// Time is the virtual timestamp of the window start.
	Time time.Duration
	// Invoked reports whether the controller actually ran (adaptive
	// strategies may skip stable windows).
	Invoked bool
	// Degraded reports a fallback decision (search failed or panicked).
	Degraded bool
	// SearchTime is the decide duration on the simulation clock.
	SearchTime time.Duration
	// GuardChecked marks a window whose proposed plan went through the
	// admission guard; GuardRejected reports the guard refused it.
	// Windows without a guard (or without a plan) are unmeasurable for
	// the guard-reject objective — runs predating the guard keep their
	// SLO accounting unchanged.
	GuardChecked, GuardRejected bool
}

// ObjectiveState is one objective's error-budget accounting.
type ObjectiveState struct {
	Name string `json:"name"`
	// Windows is how many windows were measurable for this objective.
	Windows int `json:"windows"`
	// Breaches is how many measurable windows violated it.
	Breaches int `json:"breaches"`
	// Budget is the allowed breaching fraction.
	Budget float64 `json:"budget"`
	// BudgetUsed is Breaches / (Budget * Windows): 1.0 = budget
	// exhausted.
	BudgetUsed float64 `json:"budget_used"`
	// BurnRate is the trailing-window breach fraction divided by the
	// budget (SRE burn rate: sustained >1 exhausts the budget).
	BurnRate float64 `json:"burn_rate"`
	// Healthy is false while the budget is exhausted (it recovers as
	// clean windows dilute the breach fraction).
	Healthy bool `json:"healthy"`
	// LastBreachWindow is the most recent breaching window (-1 never),
	// i.e. the trace to pull up first.
	LastBreachWindow int    `json:"last_breach_window"`
	LastBreachTrace  string `json:"last_breach_trace,omitempty"`
}

// Alert is one ring entry. TimeSec is virtual; the Trace field joins
// the alert to spans and the provenance record of the same window.
type Alert struct {
	Window    int     `json:"window"`
	Trace     string  `json:"trace"`
	TimeSec   float64 `json:"t_sec"`
	Objective string  `json:"objective"`
	Severity  string  `json:"severity"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Message   string  `json:"message"`
}

// Snapshot is the engine's full serialized state.
type Snapshot struct {
	Schema      string           `json:"schema"`
	Windows     int              `json:"windows"`
	Objectives  []ObjectiveState `json:"objectives"`
	Alerts      []Alert          `json:"alerts"`
	TotalAlerts int              `json:"total_alerts"`
}

// objective is one declarative rule: measure extracts (value,
// threshold, measurable); breach is value vs threshold in the rule's
// direction.
type objective struct {
	name    string
	budget  float64
	measure func(w WindowObs) (value, threshold float64, measurable bool)
	breach  func(value, threshold float64) bool
	format  func(value, threshold float64) string

	windows, breaches int
	lastBreach        int
	ring              []bool // trailing breach flags, burnWindows cap
	paged             bool
}

// Engine evaluates the objectives window by window. Safe for one
// writer (the scenario loop) plus concurrent Snapshot readers (the ops
// endpoint). A nil *Engine is valid and inert.
type Engine struct {
	mu         sync.Mutex
	objectives []*objective
	windows    int
	alerts     []Alert
	total      int
	reg        *obs.Registry
}

// New builds an engine for the monitoring interval (which sets the decide
// budget), publishing its gauges on the observer's registry (nil-safe).
func New(interval time.Duration, o *obs.Observer) *Engine {
	decideBudget := decideBudgetDefault
	if interval > 0 {
		decideBudget = interval / 4
	}
	e := &Engine{}
	if o != nil {
		e.reg = o.Metrics
	}
	e.objectives = []*objective{
		{
			name:   "decide-latency",
			budget: decideBudgetFrac,
			measure: func(w WindowObs) (float64, float64, bool) {
				return w.SearchTime.Seconds(), decideBudget.Seconds(), w.Invoked
			},
			breach: func(v, t float64) bool { return v > t },
			format: func(v, t float64) string {
				return fmt.Sprintf("decide took %.2fs virtual, budget %.2fs", v, t)
			},
		},
		{
			name:   "degraded-burn",
			budget: degradedFrac,
			measure: func(w WindowObs) (float64, float64, bool) {
				v := 0.0
				if w.Degraded {
					v = 1
				}
				return v, 0.5, true
			},
			breach: func(v, t float64) bool { return v > t },
			format: func(_, _ float64) string { return "window ran degraded (fallback decision)" },
		},
		{
			name:   "guard-reject",
			budget: guardRejectFrac,
			measure: func(w WindowObs) (float64, float64, bool) {
				v := 0.0
				if w.GuardRejected {
					v = 1
				}
				return v, 0.5, w.GuardChecked
			},
			breach: func(v, t float64) bool { return v > t },
			format: func(_, _ float64) string {
				return "admission guard rejected the window's plan"
			},
		},
	}
	for _, ob := range e.objectives {
		ob.lastBreach = -1
	}
	return e
}

// ObserveWindow folds one window into every objective and returns the
// alerts it raised (already appended to the ring). It publishes the budget
// gauges but counts nothing: a restore refolds every window through it, so
// the caller counts the alerts it acts on.
func (e *Engine) ObserveWindow(w WindowObs) []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.windows++
	var fired []Alert
	for _, ob := range e.objectives {
		value, threshold, measurable := ob.measure(w)
		if !measurable {
			continue
		}
		ob.windows++
		bad := ob.breach(value, threshold)
		ob.ring = append(ob.ring, bad)
		if len(ob.ring) > burnWindows {
			ob.ring = ob.ring[1:]
		}
		if bad {
			ob.breaches++
			ob.lastBreach = w.Window
			fired = append(fired, e.alertLocked(ob, w, SeverityWarn, value, threshold))
		}
		// Page on sustained exhaustion, evaluated every measurable window:
		// a grace period of burnWindows keeps a single cold-start breach
		// (1 breach / budget*1 window always exceeds 1) from latching the
		// page, and a budget that recovers below 1 re-arms it.
		switch used := budgetUsed(ob); {
		case used >= 1 && !ob.paged && ob.windows >= burnWindows:
			ob.paged = true
			fired = append(fired, e.alertLocked(ob, w, SeverityPage, value, threshold))
		case used < 1:
			ob.paged = false
		}
	}
	e.publishGaugesLocked()
	return fired
}

func (e *Engine) alertLocked(ob *objective, w WindowObs, severity string, value, threshold float64) Alert {
	msg := ob.format(value, threshold)
	if severity == SeverityPage {
		msg = fmt.Sprintf("error budget exhausted (%d/%d windows breached, budget %.0f%%)",
			ob.breaches, ob.windows, ob.budget*100)
	}
	a := Alert{
		Window:    w.Window,
		Trace:     obs.TraceID(w.Window),
		TimeSec:   w.Time.Seconds(),
		Objective: ob.name,
		Severity:  severity,
		Value:     value,
		Threshold: threshold,
		Message:   msg,
	}
	e.alerts = append(e.alerts, a)
	if len(e.alerts) > alertCap {
		e.alerts = e.alerts[len(e.alerts)-alertCap:]
	}
	e.total++
	return a
}

func budgetUsed(ob *objective) float64 {
	allowed := ob.budget * float64(ob.windows)
	if allowed <= 0 {
		if ob.breaches > 0 {
			return float64(ob.breaches)
		}
		return 0
	}
	return float64(ob.breaches) / allowed
}

func burnRate(ob *objective) float64 {
	if len(ob.ring) == 0 || ob.budget <= 0 {
		return 0
	}
	bad := 0
	for _, b := range ob.ring {
		if b {
			bad++
		}
	}
	return (float64(bad) / float64(len(ob.ring))) / ob.budget
}

// metricName maps an objective name into the metric-name alphabet.
func metricName(s string) string { return strings.ReplaceAll(s, "-", "_") }

func (e *Engine) publishGaugesLocked() {
	if e.reg == nil {
		return
	}
	for _, ob := range e.objectives {
		n := metricName(ob.name)
		e.reg.Gauge("slo_budget_used_" + n).Set(budgetUsed(ob))
		e.reg.Gauge("slo_burn_rate_" + n).Set(burnRate(ob))
	}
}

// Snapshot returns the engine's deterministic serialized state.
func (e *Engine) Snapshot() Snapshot {
	if e == nil {
		return Snapshot{Schema: Schema, Objectives: []ObjectiveState{}, Alerts: []Alert{}}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Snapshot{
		Schema:      Schema,
		Windows:     e.windows,
		Objectives:  make([]ObjectiveState, 0, len(e.objectives)),
		Alerts:      append([]Alert{}, e.alerts...),
		TotalAlerts: e.total,
	}
	for _, ob := range e.objectives {
		st := ObjectiveState{
			Name:             ob.name,
			Windows:          ob.windows,
			Breaches:         ob.breaches,
			Budget:           ob.budget,
			BudgetUsed:       budgetUsed(ob),
			BurnRate:         burnRate(ob),
			Healthy:          budgetUsed(ob) < 1,
			LastBreachWindow: ob.lastBreach,
		}
		if ob.lastBreach >= 0 {
			st.LastBreachTrace = obs.TraceID(ob.lastBreach)
		}
		s.Objectives = append(s.Objectives, st)
	}
	return s
}
