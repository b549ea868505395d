package scenario

import (
	"fmt"
	"log/slog"
	"strings"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/slo"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// Engine is the resumable heart of the replay loop: one instance owns the
// per-run controller state — window index, virtual clock, retry queue,
// accumulating Result, SLO engine — and advances it one monitoring window
// per Step. Run is a thin loop over Step; a daemon can instead drive Step
// (or StepRates, with streamed workload samples) incrementally, Snapshot
// the engine to disk, and Restore it in a fresh process without losing
// calibration.
//
// The engine is not safe for concurrent use: one goroutine steps it. The
// observability sinks it feeds (metrics, ops plane, SLO snapshots) have
// their own synchronization and may be read concurrently.
type Engine struct {
	tb  *testbed.Testbed
	d   Decider
	cfg RunConfig

	res         *Result
	totalSearch time.Duration
	retries     []RetryState
	t           time.Duration

	o    *obs.Observer
	olog *slog.Logger
	// views folds the window logs into the SLO engine, the history store and
	// /ops (see history.go).
	views *views

	cWindows       *obs.Counter
	cViolations    *obs.Counter
	cDecideErr     *obs.Counter
	cDegraded      *obs.Counter
	cFailedActions *obs.Counter
	cRetries       *obs.Counter
	cExecRej       *obs.Counter
	cCrashes       *obs.Counter
	cRolledBack    *obs.Counter
	cSLOBreaches   *obs.Counter
	cSLOAlerts     *obs.Counter
	hWindowUtil    *obs.Histogram
	gCumUtil       *obs.Gauge
}

// StepResult is what one completed monitoring window hands back to the
// engine's driver.
type StepResult struct {
	// Index is the 0-based index of the window just completed.
	Index int
	// Window is the completed window's log; the same value was appended to
	// Result().Windows.
	Window WindowLog
	// ProvErr surfaces the provenance recorder's sticky first write error
	// live, window by window — Run only reported it when the whole replay
	// ended, which let a daemon silently drop records for hours. Nil while
	// every append has succeeded (and always nil without a recorder).
	ProvErr error
}

// NewEngine validates the configuration and builds an engine positioned
// before window 0. The configuration defaults match Run's exactly.
func NewEngine(tb *testbed.Testbed, d Decider, cfg RunConfig) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		tb:  tb,
		d:   d,
		cfg: cfg,
		res: &Result{Strategy: d.Name(), ViolationsByApp: make(map[string]int)},
	}

	// Observability: the engine owns the root "decide" span of each control
	// opportunity, so controller-level children ("perfpwr", "search") and
	// testbed "action:*" events nest under it. All sinks are nil-safe
	// no-ops when observability is disabled.
	o := obs.Resolve(cfg.Obs)
	e.o = o
	e.olog = o.Logger()
	e.cWindows = o.Counter("scenario_windows_total")
	e.cViolations = o.Counter("scenario_target_violations_total")
	e.cDecideErr = o.Counter("scenario_decide_errors_total")
	e.cDegraded = o.Counter("scenario_degraded_windows_total")
	e.cFailedActions = o.Counter("scenario_failed_actions_total")
	e.cRetries = o.Counter("scenario_retries_total")
	e.cExecRej = o.Counter("scenario_exec_rejections_total")
	e.cCrashes = o.Counter("scenario_host_crashes_total")
	e.cRolledBack = o.Counter("scenario_rolledback_actions_total")
	e.cSLOBreaches = o.Counter("slo_breaches_total")
	e.cSLOAlerts = o.Counter("slo_alerts_total")
	e.hWindowUtil = o.Histogram("scenario_window_utility_dollars", []float64{-10, -1, -0.1, 0, 0.1, 1, 10})
	e.gCumUtil = o.Gauge("scenario_cum_utility_dollars")

	// Causal identity: each window gets a deterministic trace context
	// (obs.WindowTrace) shared by spans, SLO alerts, the ops plane, and —
	// by recomputation from Record.Window — provenance. The views fold
	// whenever an observer is active (see history.go).
	e.views = newViews(o, d.Name(), cfg.Interval)
	return e, nil
}

// Result returns the accumulating result. The same pointer is live for the
// engine's whole life: callers reading it concurrently with Step see torn
// state, so only inspect it between steps.
func (e *Engine) Result() *Result { return e.res }

// Now returns the virtual time at which the next window starts.
func (e *Engine) Now() time.Duration { return e.t }

// WindowIndex returns the index of the next window to run.
func (e *Engine) WindowIndex() int { return e.views.completed() }

// Window returns the log of completed window k, 0 <= k < WindowIndex().
func (e *Engine) Window(k int) WindowLog { return *completed(e.res.Windows, e.views.skip, k) }

// Interval returns the monitoring interval in force (after defaulting).
func (e *Engine) Interval() time.Duration { return e.cfg.Interval }

// SLO returns the self-monitoring engine (nil when observability is off
// and none was injected).
func (e *Engine) SLO() *slo.Engine { return e.views.slo }

// Done reports whether the configured replay duration is exhausted. It
// bounds Run; StepRates ignores it, so a daemon streaming live samples can
// keep going past the trace horizon.
func (e *Engine) Done() bool { return e.t >= e.cfg.Duration }

// Step runs one monitoring window with the configured traces' rates.
func (e *Engine) Step() (StepResult, error) {
	return e.StepRates(e.cfg.Traces.At(e.t))
}

// StepRates runs one monitoring window under the given per-application
// request rates, advancing the virtual clock by one interval: host crashes,
// one due retry, the decision with its admission and launch, the
// measurement, then one publish.
//
// The window degrades rather than aborts: a decision error (or panic), a
// rejected plan, a failed or skipped action, a host crash, or a dropped
// sensor window marks the window Degraded, is counted on the Result, and
// the engine carries the reconciled testbed configuration into the next
// window so the strategy can replan against reality. Only infrastructure
// errors — invalid rates, a broken measurement pipeline — return an error,
// and a window whose measurement failed is still booked (see publish).
func (e *Engine) StepRates(rates map[string]float64) (StepResult, error) {
	e.views.begin()
	if err := e.tb.SetRates(rates); err != nil {
		return StepResult{Index: e.WindowIndex(), ProvErr: e.cfg.Provenance.Err()}, fmt.Errorf("scenario: %w", err)
	}
	w := window{index: e.WindowIndex(), tc: obs.WindowTrace(e.WindowIndex())}
	w.Time, w.Rates = e.t+e.cfg.Interval, rates
	if e.o.Tracer() != nil {
		if ta, ok := e.d.(TraceAware); ok {
			ta.SetTraceContext(w.tc)
		}
		e.tb.SetTrace(w.tc)
	}

	e.crashHosts(&w)
	e.retryDue(&w)
	e.decide(&w)
	err := e.measure(&w)
	e.publish(&w)

	sr := StepResult{Index: w.index, Window: w.WindowLog, ProvErr: e.cfg.Provenance.Err()}
	if err != nil {
		return sr, fmt.Errorf("scenario: %w", err)
	}
	return sr, nil
}

// crashHosts lands the window's host crashes first, and only while no plan
// is in flight (so executing phases stay consistent): the strategy plans
// against the post-crash configuration.
func (e *Engine) crashHosts(w *window) {
	if !e.cfg.Fault.Enabled() || e.tb.Busy() {
		return
	}
	for _, h := range e.cfg.Fault.HostCrashes(e.tb.Config().ActiveHosts(), e.cfg.Interval) {
		rep, err := e.tb.CrashHost(h)
		if err != nil {
			e.olog.Warn("host crash not applied", "host", h, "err", err)
			continue
		}
		w.HostCrashes++
		w.degrade("host crash: " + h)
		e.olog.Warn("host crashed",
			"host", h,
			"displaced", len(rep.Displaced),
			"stranded", len(rep.Stranded),
			"recovery", rep.Recovery)
	}
}

// retryDue re-executes one due retry per window while idle; if its recovery
// phase occupies the testbed, the decision naturally defers to the next
// window via decide's Busy check.
func (e *Engine) retryDue(w *window) {
	if e.tb.Busy() {
		return
	}
	i := dueRetry(e.retries, e.t)
	if i < 0 {
		return
	}
	rt := e.retries[i]
	e.retries = append(e.retries[:i], e.retries[i+1:]...)
	w.Retried++
	w.degrade(fmt.Sprintf("retry of failed %s", rt.Action.Kind))
	e.o.Tracer().Event("retry", e.t, e.t, w.tc.Attr(),
		obs.Attr{Key: "span", Value: w.tc.SpanID("retry", fmt.Sprint(rt.Action.Kind))},
		obs.Attr{Key: "kind", Value: fmt.Sprint(rt.Action.Kind)},
		obs.Attr{Key: "attempt", Value: rt.Attempt + 1})
	rep, err := e.tb.Execute([]cluster.Action{rt.Action})
	if err != nil {
		// The cluster moved on (host crashed, VM re-placed); the action no
		// longer applies. Abandon it.
		e.olog.Warn("retry rejected", "kind", rt.Action.Kind, "err", err)
		return
	}
	e.countExec(w, rep, rt.Attempt+1)
}

// decide invokes the strategy unless the testbed is still executing a
// previously chosen plan, and launches the plan it returns. The engine owns
// the root "decide" span, so controller-level children ("perfpwr", "search")
// and testbed "action:*" events nest under it; it covers the decision and
// the plan it launched — search time and execution overlap on the virtual
// clock, so the span ends when the longer of the two does.
func (e *Engine) decide(w *window) {
	if w.busy = e.tb.Busy(); w.busy {
		return
	}
	t := e.t
	sp := e.o.Tracer().Start("decide", t,
		obs.Attr{Key: "strategy", Value: e.d.Name()},
		w.tc.Attr(),
		obs.Attr{Key: "span", Value: w.tc.SpanID("decide")})
	wallT0 := time.Now()
	dec, err := safeDecide(e.d, t, e.tb.Config(), w.Rates)
	w.decideWall = time.Since(wallT0)
	if err != nil {
		w.DecideError = true
		sp.End(t, obs.Attr{Key: "error", Value: err.Error()})
		e.olog.Warn("decide failed; degrading to no adaptation",
			"strategy", e.d.Name(), "t", t, "err", err)
		w.degrade("decide: " + err.Error())
		return
	}
	w.provs = dec.Provs
	if dec.Invoked {
		w.Invoked = true
		w.SearchTime = dec.SearchTime
		w.SearchCost = dec.SearchCost
	}
	w.Expansions = dec.Expansions
	if dec.Degraded {
		w.fallback = true
		reason := dec.DegradedReason
		if reason == "" {
			reason = "strategy fallback"
		}
		w.degrade(reason)
	}
	end := t + dec.SearchTime
	if len(dec.Plan) > 0 {
		if pe := t + e.launch(w, dec.Plan); pe > end {
			end = pe
		}
	}
	sp.End(end,
		obs.Attr{Key: "invoked", Value: dec.Invoked},
		obs.Attr{Key: "actions", Value: len(dec.Plan)},
		obs.Attr{Key: "search_cost", Value: dec.SearchCost})
	w.Utility -= dec.SearchCost
}

// launch screens the plan against the guard's invariants (and the circuit
// breaker) before a single action is scheduled — a nil guard admits
// everything — then executes it and returns how long it will run.
func (e *Engine) launch(w *window, plan []cluster.Action) time.Duration {
	v := e.cfg.Guard.Admit(e.t, e.tb.FinalConfig(), plan)
	if w.GuardChecked = e.cfg.Guard.Enabled(); w.GuardChecked {
		w.guard = &provenance.GuardProv{
			Allowed: v.Allowed,
			Rule:    v.Rule,
			Reason:  v.Reason,
			Breaker: v.Breaker.String(),
		}
	}
	if !v.Allowed {
		w.GuardRejected = true
		w.GuardRule = v.Rule
		w.degrade("guard rejected plan: " + v.Rule)
		e.olog.Warn("guard rejected plan",
			"strategy", e.d.Name(), "t", e.t,
			"rule", v.Rule, "reason", v.Reason,
			"breaker", v.Breaker.String())
		return 0
	}
	rep, err := e.tb.Execute(plan)
	if err != nil {
		// The whole plan was rejected — typically stale against a
		// crash-reconciled configuration. Replan next window.
		e.olog.Warn("plan rejected", "strategy", e.d.Name(), "t", e.t, "err", err)
		w.execRejected = true
		w.degrade("plan rejected: " + err.Error())
		return 0
	}
	e.countExec(w, rep, 1)
	return rep.Duration
}

// countExec fills the window from one ExecReport and queues retryable
// failures. attempt is how many times the report's actions have now been
// executed.
func (e *Engine) countExec(w *window, rep testbed.ExecReport, attempt int) {
	w.Actions += rep.Started()
	if rep.Failed > 0 {
		w.FailedActions += rep.Failed
		w.degrade(fmt.Sprintf("%d action(s) failed", rep.Failed))
		e.retries = queueRetries(e.retries, rep, attempt, e.t, e.cfg.Retry)
	}
	if rep.Skipped > 0 {
		w.skipped += rep.Skipped
		w.degrade(fmt.Sprintf("%d action(s) skipped", rep.Skipped))
	}
	if rep.Compensated {
		// The plan aborted as a transaction and its applied prefix was
		// rolled back. FPRestored cross-checks the testbed's guarantee:
		// the scheduled final configuration's fingerprint returned to its
		// pre-plan value.
		w.RolledBack += rep.RolledBack
		w.compensated++
		w.Compensated = true
		w.FPRestored = rep.FinalFP == rep.PrePlanFP
		w.degrade(fmt.Sprintf("plan rolled back (%d compensating step(s))", rep.RolledBack))
	}
	if e.cfg.StepProvenance && e.cfg.Provenance.Enabled() {
		for _, st := range rep.Steps {
			sp := provenance.StepProv{
				Action:      st.Action.String(),
				Status:      st.Status.String(),
				PlannedSec:  st.Planned.Seconds(),
				RealizedSec: st.Realized.Seconds(),
				Retryable:   st.Retryable,
			}
			if attempt > 1 {
				sp.Retry = attempt - 1
			}
			if st.Err != nil {
				sp.Err = st.Err.Error()
			}
			w.steps = append(w.steps, sp)
		}
	}
}

// measure closes the window on the testbed and accounts Eq. 3: the window's
// utility is its performance and power accrual less the search cost decide
// already charged. A failed measurement marks the window aborted.
func (e *Engine) measure(w *window) error {
	m, err := e.tb.MeasureWindow(w.Time)
	w.ActiveHosts = e.tb.Config().NumActiveHosts()
	if err != nil {
		w.Aborted = true
		w.degrade("measure: " + err.Error())
		w.CumUtility = e.res.CumUtility + w.Utility
		return err
	}
	w.RTSec = m.RTSec
	w.Watts = m.Watts
	if m.SensorDropped {
		w.SensorDropped = true
		w.degrade("sensor window dropped")
	}
	perfRate, pwrRate := e.accrual(&w.WindowLog)
	w.Utility += e.cfg.Interval.Seconds() * (perfRate + pwrRate)
	w.CumUtility = e.res.CumUtility + w.Utility
	for name, a := range e.cfg.Utility.Apps {
		if w.Rates[name] > 0 && m.RTSec[name] > a.TargetRT.Seconds() {
			w.violations = append(w.violations, name)
		}
	}
	return nil
}

// accrual is a measured window's Eq. 1 performance and Eq. 2 power accrual
// rates (dollars/second), read from its log.
func (e *Engine) accrual(w *WindowLog) (perfRate, pwrRate float64) {
	return e.cfg.Utility.PerfRateAll(w.Rates, w.RTSec), e.cfg.Utility.PowerRate(w.Watts)
}

// feedback hands the decider a completed window's realized utility and
// accrual rates. The decider's feedback is a fold over the window logs: the
// live engine feeds each window as it publishes it, and Restore refeeds a
// checkpoint's windows, so a checkpoint carries no copy of it.
func (e *Engine) feedback(w *WindowLog) {
	perfRate, pwrRate := e.accrual(w)
	e.d.RecordWindow(w.Utility, perfRate, pwrRate)
}

// publish derives every view of the window from its record, once. A window
// whose measurement failed is booked — the Result, the counters of what had
// happened by then, provenance, and the mean search time for a caller that
// stops on the error — and nothing that observes completed windows sees it;
// the clock stays put.
func (e *Engine) publish(w *window) {
	e.res.add(w, e.cfg.Interval)
	e.totalSearch += w.SearchTime
	e.cCrashes.Add(int64(w.HostCrashes))
	e.cRetries.Add(int64(w.Retried))
	e.cFailedActions.Add(int64(w.FailedActions))
	e.cRolledBack.Add(int64(w.RolledBack))
	e.cDecideErr.Add(int64(b2i(w.DecideError)))
	e.cExecRej.Add(int64(b2i(w.execRejected)))
	e.record(w)
	alerts := e.views.add(e.res.Windows)
	if w.Aborted {
		e.setMeanSearchTime()
		return
	}

	e.feedback(&w.WindowLog)
	e.cWindows.Inc()
	e.cViolations.Add(int64(len(w.violations)))
	e.hWindowUtil.ObserveExemplar(w.Utility, w.tc.ID())
	e.gCumUtil.Set(w.CumUtility)
	if w.Degraded {
		e.cDegraded.Inc()
		e.olog.Warn("window degraded",
			"strategy", e.d.Name(),
			"t", w.Time,
			"reason", w.DegradedReason)
	}
	e.olog.Info("window",
		"strategy", e.d.Name(),
		"trace", w.tc.ID(),
		"t", w.Time,
		"watts", w.Watts,
		"utility", w.Utility,
		"cum_utility", w.CumUtility,
		"actions", w.Actions,
		"invoked", w.Invoked,
		"degraded", w.Degraded)

	// The breaker consumes the window's health exactly once per window,
	// busy windows included (its cooldown is counted in windows): this
	// window's degraded status gates the next window's admission.
	e.cfg.Guard.ObserveWindow(w.Degraded)

	for _, a := range alerts {
		// A warn alert is one objective's breach; a page is not.
		if a.Severity == slo.SeverityWarn {
			e.cSLOBreaches.Inc()
			e.o.Counter("slo_breach_" + strings.ReplaceAll(a.Objective, "-", "_") + "_total").Inc()
		}
		e.cSLOAlerts.Inc()
		e.olog.Warn("slo alert",
			"objective", a.Objective,
			"severity", a.Severity,
			"trace", a.Trace,
			"msg", a.Message)
	}
	e.t = w.Time
	e.views.publish(w.decideWall, false)
}

// record appends the window's provenance record; window indices count every
// window, busy ones included. Append's first error is sticky on the
// recorder, surfaced live on each StepResult and finally by Close; the
// window itself never aborts over a provenance write.
func (e *Engine) record(w *window) {
	if !e.cfg.Provenance.Enabled() {
		return
	}
	_ = e.cfg.Provenance.Append(&provenance.Record{
		Window:    w.index,
		Strategy:  e.res.Strategy,
		Busy:      w.busy,
		Log:       w.WindowLog,
		Decisions: w.provs,
		Guard:     w.guard,
		Steps:     w.steps,
	})
}

// setMeanSearchTime finalizes the mean search time over invocations.
func (e *Engine) setMeanSearchTime() {
	if e.res.Invocations > 0 {
		e.res.MeanSearchTime = e.totalSearch / time.Duration(e.res.Invocations)
	}
}

// Close finalizes the result (mean search time over invocations) and
// surfaces the provenance recorder's sticky first write error. It does not
// release resources — the testbed and recorder belong to the caller — so an
// engine may be snapshotted after Close and its state restored elsewhere.
func (e *Engine) Close() error {
	e.setMeanSearchTime()
	if err := e.cfg.Provenance.Err(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// Run steps the engine to the end of its configured duration and closes it.
// A step error stops the replay and is returned with the result so far.
func (e *Engine) Run() (*Result, error) {
	for !e.Done() {
		if _, err := e.Step(); err != nil {
			return e.res, err
		}
	}
	return e.res, e.Close()
}
