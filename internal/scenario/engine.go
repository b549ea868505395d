package scenario

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/slo"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/par"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// Engine is the resumable heart of the replay loop: one instance owns the
// per-run controller state Run used to keep in local variables — window
// index, virtual clock, retry queue, accumulating Result, SLO engine —
// and advances it one monitoring window per Step. Run is now a thin loop
// over Step, so batch replays are byte-identical to the monolithic loop
// they replaced; a daemon can instead drive Step (or StepRates, with
// streamed workload samples) incrementally, Snapshot the engine to disk,
// and Restore it in a fresh process without losing calibration.
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
	retries     []pendingRetry
	winIdx      int
	t           time.Duration

	o    *obs.Observer
	olog *slog.Logger
	reg  *obs.Registry
	slo  *slo.Engine
	ops  *obs.OpsState
	ta   TraceAware
	// begun records that this engine has taken over the observer's ops
	// plane and history store (see begin).
	begun bool

	// Telemetry history plane (see history.go). hist is nil when
	// observability is fully off; histExp/histHits/histMisses are the
	// cumulative registry baselines the per-window fold diffs against.
	hist                          *tsdb.Store
	det                           *tsdb.Detector
	histExp, histHits, histMisses int64

	cWindows       *obs.Counter
	cViolations    *obs.Counter
	cDecideErr     *obs.Counter
	cDegraded      *obs.Counter
	cFailedActions *obs.Counter
	cRetries       *obs.Counter
	cExecRej       *obs.Counter
	cCrashes       *obs.Counter
	cRolledBack    *obs.Counter
	cAnomalies     *obs.Counter
	cWallDrift     *obs.Counter
	hWindowUtil    *obs.Histogram
	gCumUtil       *obs.Gauge

	// steps accumulates the current window's per-step execution outcomes
	// when RunConfig.StepProvenance is on; reset at each StepRates entry.
	steps []provenance.StepProv
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
	e.cAnomalies = o.Counter("history_anomalies_total")
	e.cWallDrift = o.Counter("history_wall_drift_total")
	e.hWindowUtil = o.Histogram("scenario_window_utility_dollars", []float64{-10, -1, -0.1, 0, 0.1, 1, 10})
	e.gCumUtil = o.Gauge("scenario_cum_utility_dollars")
	o.Gauge("scenario_workers").Set(float64(par.Workers(cfg.Workers)))

	// Causal identity: each window gets a deterministic trace context
	// (obs.WindowTrace) shared by spans, SLO alerts, the ops plane, and —
	// by recomputation from Record.Window — provenance. The SLO engine
	// defaults on whenever an observer is active; it reads only
	// virtual-time quantities, so its state is deterministic and the
	// decision stream is untouched.
	if o != nil {
		e.reg = o.Metrics
	}
	e.slo = cfg.SLO
	if e.slo == nil && o != nil {
		e.slo = slo.New(slo.Config{Interval: cfg.Interval}, o)
	}
	e.ops = o.OpsState()

	// Telemetry history defaults on with any observer, like the SLO
	// engine: an explicit store in the config wins, then the observer's
	// shared store (the one /v1/query serves), then a private one.
	e.hist = cfg.History
	if e.hist == nil && o != nil {
		if e.hist = o.HistoryStore(); e.hist == nil {
			e.hist = tsdb.New(tsdb.Options{})
		}
	}
	if e.hist != nil {
		e.det = tsdb.NewDetector(tsdb.DetectorConfig{})
	}
	e.ta, _ = d.(TraceAware)
	return e, nil
}

// begin takes over the observer's per-run planes: the ops surface and the
// history store re-begin (sequential runs over a shared observer each start
// empty). It runs when the engine first steps or is snapshotted, not at
// construction, and Restore does the same once it can no longer fail — so an
// engine built beside a running one, for a restore that may still be
// refused, leaves what the running one publishes untouched.
func (e *Engine) begin() {
	if e.begun {
		return
	}
	e.begun = true
	e.ops.BeginRun(e.d.Name(), e.cfg.Interval)
	e.hist.Reset()
	e.histSyncBaselines()
}

// Result returns the accumulating result. The same pointer is live for the
// engine's whole life: callers reading it concurrently with Step see torn
// state, so only inspect it between steps.
func (e *Engine) Result() *Result { return e.res }

// Now returns the virtual time at which the next window starts.
func (e *Engine) Now() time.Duration { return e.t }

// WindowIndex returns the index of the next window to run.
func (e *Engine) WindowIndex() int { return e.winIdx }

// Interval returns the monitoring interval in force (after defaulting).
func (e *Engine) Interval() time.Duration { return e.cfg.Interval }

// SLO returns the self-monitoring engine (nil when observability is off
// and none was injected).
func (e *Engine) SLO() *slo.Engine { return e.slo }

// Done reports whether the configured replay duration is exhausted. It
// bounds Run; StepRates ignores it, so a daemon streaming live samples can
// keep going past the trace horizon.
func (e *Engine) Done() bool { return e.t >= e.cfg.Duration }

// Step runs one monitoring window with the configured traces' rates.
func (e *Engine) Step() (StepResult, error) {
	return e.StepRates(e.cfg.Traces.At(e.t))
}

// countExec folds one ExecReport into the window and result totals and
// queues retryable failures. attempt is how many times the report's
// actions have now been executed.
func (e *Engine) countExec(log *WindowLog, rep testbed.ExecReport, attempt int, now time.Duration) {
	log.Actions += rep.Started()
	e.res.TotalActions += rep.Started()
	if rep.Failed > 0 {
		log.FailedActions += rep.Failed
		e.res.FailedActions += rep.Failed
		e.cFailedActions.Add(int64(rep.Failed))
		log.degrade(fmt.Sprintf("%d action(s) failed", rep.Failed))
		e.retries = queueRetries(e.retries, rep, attempt, now, e.cfg.Retry)
	}
	if rep.Skipped > 0 {
		e.res.SkippedActions += rep.Skipped
		log.degrade(fmt.Sprintf("%d action(s) skipped", rep.Skipped))
	}
	if rep.Compensated {
		// The plan aborted as a transaction and its applied prefix was
		// rolled back. FPRestored cross-checks the testbed's guarantee:
		// the scheduled final configuration's fingerprint returned to its
		// pre-plan value.
		log.RolledBack += rep.RolledBack
		e.res.RolledBackActions += rep.RolledBack
		e.cRolledBack.Add(int64(rep.RolledBack))
		e.res.CompensatedPlans++
		log.Compensated = true
		log.FPRestored = rep.FinalFP == rep.PrePlanFP
		log.degrade(fmt.Sprintf("plan rolled back (%d compensating step(s))", rep.RolledBack))
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
			e.steps = append(e.steps, sp)
		}
	}
}

// record emits one provenance record for a completed (or aborted) window;
// window indices count every window, busy ones included. The same index
// seeds the window's trace context, so provenance readers recover the
// trace ID with obs.TraceID(Record.Window) — no new serialized field, no
// byte-level drift.
func (e *Engine) record(log *WindowLog, busy bool, searchCost float64, provs []*provenance.DecisionProv, gp *provenance.GuardProv) {
	if !e.cfg.Provenance.Enabled() {
		return
	}
	// Append's first error is sticky on the recorder, surfaced live on each
	// StepResult and finally by Close; the window itself never aborts over
	// a provenance write.
	rec := &provenance.Record{
		Window:            e.winIdx,
		TimeSec:           log.Time.Seconds(),
		Strategy:          e.res.Strategy,
		Invoked:           log.Invoked,
		Busy:              busy,
		Degraded:          log.Degraded,
		DegradedReason:    log.DegradedReason,
		Actions:           log.Actions,
		SearchTimeSec:     log.SearchTime.Seconds(),
		SearchCostDollars: searchCost,
		UtilityDollars:    log.Utility,
		CumUtilityDollars: log.CumUtility,
		Watts:             log.Watts,
		Decisions:         provs,
		Guard:             gp,
	}
	if e.cfg.StepProvenance {
		rec.Steps = e.steps
	}
	_ = e.cfg.Provenance.Append(rec)
}

// StepRates runs one monitoring window under the given per-application
// request rates, advancing the virtual clock by one interval.
//
// The window degrades rather than aborts: a decision error (or panic), a
// rejected plan, a failed or skipped action, a host crash, or a dropped
// sensor window marks the window Degraded, is counted on the Result, and
// the engine carries the reconciled testbed configuration into the next
// window so the strategy can replan against reality. Only infrastructure
// errors — invalid rates, a broken measurement pipeline — return an error,
// and even then the in-progress window (with its already-charged search
// cost) is recorded first.
func (e *Engine) StepRates(rates map[string]float64) (StepResult, error) {
	e.begin()
	t := e.t
	cfg := e.cfg
	res := e.res
	tb := e.tb
	d := e.d
	tr := e.o.Tracer()
	olog := e.olog

	if err := tb.SetRates(rates); err != nil {
		return StepResult{Index: e.winIdx, ProvErr: cfg.Provenance.Err()}, fmt.Errorf("scenario: %w", err)
	}

	log := WindowLog{Time: t + cfg.Interval, Rates: rates}
	e.steps = nil

	// The window's causal identity: spans, alerts, ops entries, and
	// log lines below all carry tc's trace ID, and the provenance
	// record's Window field pins the same identity.
	tc := obs.WindowTrace(e.winIdx)
	if tr != nil {
		if e.ta != nil {
			e.ta.SetTraceContext(tc)
		}
		tb.SetTrace(tc)
	}

	// Host crashes land first, and only while no plan is in flight (so
	// executing phases stay consistent): the strategy plans against the
	// post-crash configuration.
	if cfg.Fault.Enabled() && !tb.Busy() {
		for _, h := range cfg.Fault.HostCrashes(tb.Config().ActiveHosts(), cfg.Interval) {
			rep, err := tb.CrashHost(h)
			if err != nil {
				olog.Warn("host crash not applied", "host", h, "err", err)
				continue
			}
			log.HostCrashes++
			log.degrade("host crash: " + h)
			res.HostCrashes++
			e.cCrashes.Inc()
			olog.Warn("host crashed",
				"host", h,
				"displaced", len(rep.Displaced),
				"stranded", len(rep.Stranded),
				"recovery", rep.Recovery)
		}
	}

	// Re-execute one due retry per window while idle; if its recovery
	// phase occupies the testbed, the decision naturally defers to the
	// next window via the Busy check below.
	if !tb.Busy() {
		if i := dueRetry(e.retries, t); i >= 0 {
			rt := e.retries[i]
			e.retries = append(e.retries[:i], e.retries[i+1:]...)
			res.Retries++
			e.cRetries.Inc()
			log.Retried++
			log.degrade(fmt.Sprintf("retry of failed %s", rt.action.Kind))
			tr.Event("retry", t, t, tc.Attr(),
				obs.Attr{Key: "span", Value: tc.SpanID("retry", fmt.Sprint(rt.action.Kind))},
				obs.Attr{Key: "kind", Value: fmt.Sprint(rt.action.Kind)},
				obs.Attr{Key: "attempt", Value: rt.attempt + 1})
			rep, err := tb.Execute([]cluster.Action{rt.action})
			if err != nil {
				// The cluster moved on (host crashed, VM re-placed);
				// the action no longer applies. Abandon it.
				olog.Warn("retry rejected", "kind", rt.action.Kind, "err", err)
			} else {
				e.countExec(&log, rep, rt.attempt+1, t)
			}
		}
	}

	// Invoke the strategy unless the testbed is still executing a
	// previously chosen plan.
	busy := tb.Busy()
	var searchCost float64
	var provs []*provenance.DecisionProv
	var gp *provenance.GuardProv
	var decideWall time.Duration
	decideErred := false
	if !busy {
		sp := tr.Start("decide", t,
			obs.Attr{Key: "strategy", Value: d.Name()},
			tc.Attr(),
			obs.Attr{Key: "span", Value: tc.SpanID("decide")})
		cfg.Profile.BeginDecide(e.winIdx)
		wallT0 := time.Now()
		dec, err := safeDecide(d, t, tb.Config(), rates)
		decideWall = time.Since(wallT0)
		if paths := cfg.Profile.EndDecide(e.winIdx, decideWall); len(paths) > 0 {
			olog.Warn("decide blew latency budget; pprof captured",
				"trace", tc.ID(), "wall", decideWall,
				"budget", cfg.Profile.Budget(), "artifacts", paths)
		}
		if err != nil {
			decideErred = true
			sp.End(t, obs.Attr{Key: "error", Value: err.Error()})
			olog.Warn("decide failed; degrading to no adaptation",
				"strategy", d.Name(), "t", t, "err", err)
			res.DecideErrors++
			e.cDecideErr.Inc()
			log.degrade("decide: " + err.Error())
		} else {
			provs = dec.Provs
			if dec.Invoked {
				res.Invocations++
				e.totalSearch += dec.SearchTime
				log.Invoked = true
				log.SearchTime = dec.SearchTime
				searchCost = dec.SearchCost
			}
			if dec.Degraded {
				reason := dec.DegradedReason
				if reason == "" {
					reason = "strategy fallback"
				}
				log.degrade(reason)
				res.FallbackDecisions++
			}
			var planDur time.Duration
			if len(dec.Plan) > 0 {
				// Admission: the guard screens the plan against its
				// invariants (and the circuit breaker) before a single
				// action is scheduled. A nil guard admits everything.
				v := cfg.Guard.Admit(t, tb.FinalConfig(), dec.Plan)
				if cfg.Guard.Enabled() {
					gp = &provenance.GuardProv{
						Allowed: v.Allowed,
						Rule:    v.Rule,
						Reason:  v.Reason,
						Breaker: v.Breaker.String(),
					}
				}
				if !v.Allowed {
					res.GuardRejections++
					log.GuardRejected = true
					log.GuardRule = v.Rule
					log.degrade("guard rejected plan: " + v.Rule)
					olog.Warn("guard rejected plan",
						"strategy", d.Name(), "t", t,
						"rule", v.Rule, "reason", v.Reason,
						"breaker", v.Breaker.String())
				} else if rep, err := tb.Execute(dec.Plan); err != nil {
					// The whole plan was rejected — typically stale
					// against a crash-reconciled configuration. Replan
					// next window.
					olog.Warn("plan rejected", "strategy", d.Name(), "t", t, "err", err)
					res.ExecRejections++
					e.cExecRej.Inc()
					log.degrade("plan rejected: " + err.Error())
				} else {
					planDur = rep.Duration
					e.countExec(&log, rep, 1, t)
				}
			}
			// The root span covers the decision and the plan it launched:
			// search time and execution overlap on the virtual clock, so
			// the span ends when the longer of the two does.
			end := t + dec.SearchTime
			if pe := t + planDur; pe > end {
				end = pe
			}
			sp.End(end,
				obs.Attr{Key: "invoked", Value: dec.Invoked},
				obs.Attr{Key: "actions", Value: len(dec.Plan)},
				obs.Attr{Key: "search_cost", Value: dec.SearchCost})
			log.Utility -= dec.SearchCost
		}
	}

	w, err := tb.MeasureWindow(t + cfg.Interval)
	if err != nil {
		// Record the in-progress window — its search cost is already
		// charged — before surfacing the error.
		res.CumUtility += log.Utility
		log.CumUtility = res.CumUtility
		log.ActiveHosts = tb.Config().NumActiveHosts()
		log.degrade("measure: " + err.Error())
		res.Windows = append(res.Windows, log)
		e.record(&log, busy, searchCost, provs, gp)
		if res.Invocations > 0 {
			res.MeanSearchTime = e.totalSearch / time.Duration(res.Invocations)
		}
		return StepResult{Index: e.winIdx, Window: log, ProvErr: cfg.Provenance.Err()},
			fmt.Errorf("scenario: %w", err)
	}
	log.RTSec = w.RTSec
	log.Watts = w.Watts
	if w.SensorDropped {
		log.SensorDropped = true
		log.degrade("sensor window dropped")
		res.SensorDrops++
	}

	perfRate := cfg.Utility.PerfRateAll(rates, w.RTSec)
	pwrRate := cfg.Utility.PowerRate(w.Watts)
	log.Utility += cfg.Interval.Seconds() * (perfRate + pwrRate)
	res.CumUtility += log.Utility
	log.CumUtility = res.CumUtility
	d.RecordWindow(log.Utility, perfRate, pwrRate)

	violationsBefore := res.TargetViolations
	for name, a := range cfg.Utility.Apps {
		if rates[name] > 0 && w.RTSec[name] > a.TargetRT.Seconds() {
			res.TargetViolations++
			res.ViolationsByApp[name]++
		}
	}
	if log.Degraded {
		res.DegradedWindows++
		e.cDegraded.Inc()
		olog.Warn("window degraded",
			"strategy", d.Name(),
			"t", log.Time,
			"reason", log.DegradedReason)
	}
	e.cWindows.Inc()
	e.cViolations.Add(int64(res.TargetViolations - violationsBefore))
	e.hWindowUtil.ObserveExemplar(log.Utility, tc.ID())
	e.gCumUtil.Set(res.CumUtility)
	olog.Info("window",
		"strategy", d.Name(),
		"trace", tc.ID(),
		"t", log.Time,
		"watts", w.Watts,
		"utility", log.Utility,
		"cum_utility", res.CumUtility,
		"actions", log.Actions,
		"invoked", log.Invoked,
		"degraded", log.Degraded)
	log.ActiveHosts = tb.Config().NumActiveHosts()
	res.EnergyKWh += w.Watts * cfg.Interval.Hours() / 1000
	res.HostHours += float64(log.ActiveHosts) * cfg.Interval.Hours()
	res.Windows = append(res.Windows, log)
	e.record(&log, busy, searchCost, provs, gp)

	// The breaker consumes the window's health exactly once per window,
	// busy windows included (its cooldown is counted in windows): this
	// window's degraded status gates the next window's admission.
	cfg.Guard.ObserveWindow(log.Degraded)

	// Telemetry history: fold the window's canonical sample set into the
	// tsdb store and score it for anomalies. Runs before the SLO fold so
	// the history-anomaly objective sees this window's verdicts.
	histChecked, histAnomalies := e.observeHistory(&log, busy, searchCost, decideWall, tc)

	// Self-monitoring: the SLO engine folds the window's virtual-time
	// facts in; any alerts surface on the log with the window's trace
	// ID, and the ops plane gets the refreshed health snapshot.
	if e.slo != nil {
		alerts := e.slo.ObserveWindow(slo.WindowObs{
			Window:         e.winIdx,
			Time:           log.Time,
			Invoked:        log.Invoked,
			Degraded:       log.Degraded,
			SearchTime:     log.SearchTime,
			Retries:        log.Retried,
			CacheHits:      e.reg.CounterValue("eval_cache_hits_total"),
			CacheMisses:    e.reg.CounterValue("eval_cache_misses_total"),
			GuardChecked:   gp != nil,
			GuardRejected:  log.GuardRejected,
			HistoryChecked: histChecked,
			Anomalies:      histAnomalies,
		})
		for _, a := range alerts {
			olog.Warn("slo alert",
				"objective", a.Objective,
				"severity", a.Severity,
				"trace", a.Trace,
				"msg", a.Message)
		}
	}
	if e.ops != nil {
		e.ops.RecordWindow(obs.OpsWindow{
			Window:        e.winIdx,
			Trace:         tc.ID(),
			TimeSec:       log.Time.Seconds(),
			CumUtility:    res.CumUtility,
			Degraded:      log.Degraded,
			Error:         decideErred,
			Retries:       log.Retried,
			Crashes:       log.HostCrashes,
			WallMS:        float64(decideWall.Microseconds()) / 1000,
			SearchTimeSec: log.SearchTime.Seconds(),
		})
		if e.slo != nil {
			if raw, err := json.Marshal(e.slo.Snapshot()); err == nil {
				e.ops.SetSLO(raw)
			}
		}
		if e.hist != nil {
			e.ops.SetHistory(e.hist.Summaries(opsSparkN))
		}
	}

	sr := StepResult{Index: e.winIdx, Window: log, ProvErr: cfg.Provenance.Err()}
	e.t = t + cfg.Interval
	e.winIdx++
	return sr, nil
}

// Close finalizes the result (mean search time over invocations) and
// surfaces the provenance recorder's sticky first write error, exactly as
// the end of the monolithic Run did. It does not release resources — the
// testbed and recorder belong to the caller — so an engine may be
// snapshotted after Close and its state restored elsewhere.
func (e *Engine) Close() error {
	if e.res.Invocations > 0 {
		e.res.MeanSearchTime = e.totalSearch / time.Duration(e.res.Invocations)
	}
	if err := e.cfg.Provenance.Err(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}
