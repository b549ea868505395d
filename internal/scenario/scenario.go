// Package scenario drives the paper's evaluation loop: it replays workload
// traces against a virtual testbed under the control of a strategy
// (Mistral or one of the baselines), measuring per-monitoring-window
// response times, power, accrued utility, and adaptation activity — the raw
// material of Figures 8–10 and Table I.
package scenario

import (
	"fmt"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/guard"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/utility"
	"github.com/mistralcloud/mistral/internal/workload"
)

// Decision is what a strategy returns for one control opportunity.
type Decision struct {
	// Invoked reports whether the strategy actually ran its decision
	// procedure this window.
	Invoked bool
	// Plan is the action sequence to execute (may be empty).
	Plan []cluster.Action
	// SearchTime is the decision procedure's (simulated) duration.
	SearchTime time.Duration
	// SearchCost is the dollar cost of the decision itself (controller
	// host power over SearchTime); charged against the window's utility.
	SearchCost float64
	// Expansions counts the search vertices expanded by every controller
	// consulted for this decision.
	Expansions int
	// Degraded reports the strategy fell back to a no-adaptation decision
	// (evaluation error, search deadline) instead of failing outright;
	// DegradedReason names the failing stage and error.
	Degraded       bool
	DegradedReason string
	// Provs carries one flight-recorder entry per controller invocation
	// behind this decision, in controller order (the Mistral hierarchy can
	// run several 1st-level controllers in one opportunity). Nil unless the
	// decider was built with provenance enabled.
	Provs []*provenance.DecisionProv
}

// TraceAware is an optional Decider extension: a strategy implementing it
// receives each window's trace context before Decide, so its spans and
// provenance-adjacent attributes share the window's causal identity. The
// replay loop detects it by type assertion — the Decider interface itself
// (re-exported from the root package) is unchanged, and strategies that
// don't care never see it.
type TraceAware interface {
	SetTraceContext(tc obs.TraceContext)
}

// Decider is a control strategy. Implementations: the Mistral hierarchy and
// the Perf-Pwr / Perf-Cost / Pwr-Cost baselines of §V-C.
type Decider interface {
	// Name labels the strategy in results.
	Name() string
	// Decide is called once per monitoring interval when the testbed is
	// not executing a previous plan.
	Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (Decision, error)
	// RecordWindow feeds back each completed window's realized utility
	// (dollars) and its performance/power accrual rates (dollars/second).
	RecordWindow(utilityDollars, perfRate, pwrRate float64)
}

// RunConfig configures a scenario replay.
type RunConfig struct {
	// Traces drive each application's request rate.
	Traces workload.Set
	// Duration bounds the replay; zero uses the longest trace duration.
	Duration time.Duration
	// Interval is the unit monitoring interval M (default 2 minutes).
	Interval time.Duration
	// Utility computes window utilities (required).
	Utility *utility.Params
	// Deprecated: Workers is ignored; it remains only because bench/ sets it.
	Workers int
	// Obs overrides the process-default observer (obs.SetDefault) for the
	// replay loop's spans and window metrics; nil resolves the default.
	Obs *obs.Observer
	// Fault optionally injects host crashes into the replay. It should be
	// the same injector the testbed was built with, so fault classes share
	// one seeded schedule. Nil injects nothing.
	Fault *fault.Injector
	// Retry bounds the re-execution of retryable failed actions.
	Retry RetryPolicy
	// Provenance, when non-nil, receives one flight-recorder Record per
	// monitoring window — including Busy windows (a previous plan still
	// executing) and Degraded windows (with their failure reason). The
	// recorder's first write error aborts the replay at the end of the run.
	// Nil — the default — records nothing and leaves the replay
	// byte-identical to an unrecorded one.
	Provenance *provenance.Recorder
	// Guard, when non-nil, screens every proposed plan against safety
	// invariants before execution and freezes adaptation via its circuit
	// breaker after runs of degraded windows. Its verdicts land on the
	// window log, the provenance record, and the SLO engine. Nil — the
	// default — admits everything, byte-identical to an unguarded run.
	Guard *guard.Guard
	// StepProvenance, when true, attaches each window's per-step execution
	// outcomes (applied/failed/skipped/rolled-back, realized durations,
	// errors) to the provenance record. Default-off: the extra fields
	// would change provenance bytes, and the golden-compat guarantee for
	// existing runs is byte-identical output.
	StepProvenance bool
}

// RetryPolicy bounds retry-with-backoff for actions the fault plane failed
// transiently. It only matters when faults are injected.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions per action including
	// the first (default 3; negative disables retries).
	MaxAttempts int
	// Backoff is the wait before the first retry, doubling per attempt
	// (default: one monitoring interval).
	Backoff time.Duration
}

func (c RunConfig) withDefaults() (RunConfig, error) {
	if len(c.Traces) == 0 {
		return c, fmt.Errorf("scenario: no traces")
	}
	if c.Utility == nil {
		return c, fmt.Errorf("scenario: utility params required")
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Minute
	}
	if c.Duration <= 0 {
		for _, tr := range c.Traces {
			if d := tr.Duration(); d > c.Duration {
				c.Duration = d
			}
		}
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry.MaxAttempts = 3
	}
	if c.Retry.Backoff <= 0 {
		c.Retry.Backoff = c.Interval
	}
	return c, nil
}

// WindowLog is one monitoring window's record; see provenance.WindowLog.
type WindowLog = provenance.WindowLog

// window is one monitoring window's record. The phases of StepRates only
// fill it; publish alone derives the views from it — Result totals, registry
// metrics, the decider's feedback, log lines, provenance, the breaker,
// history, SLO, /ops. The embedded WindowLog is the part StepResult and
// Result.Windows carry.
type window struct {
	WindowLog
	index int
	// tc is the window's causal identity: spans, alerts, ops entries and log
	// lines carry its trace ID, and the provenance record's Window field pins
	// the same identity (obs.TraceID(Record.Window)).
	tc obs.TraceContext
	// busy: the testbed was still executing an earlier plan; no decision ran.
	busy bool

	decideWall   time.Duration
	fallback     bool
	execRejected bool
	provs        []*provenance.DecisionProv
	guard        *provenance.GuardProv

	// skipped and compensated count plan steps skipped and plans rolled
	// back; steps holds per-step outcomes under RunConfig.StepProvenance.
	skipped, compensated int
	steps                []provenance.StepProv

	violations []string // applications whose measured RT missed the target
}

// degrade marks the window degraded and appends the cause to its reason.
func (w *window) degrade(reason string) {
	if w.Degraded {
		w.DegradedReason += "; "
	}
	w.Degraded = true
	w.DegradedReason += reason
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Result is a completed scenario replay.
type Result struct {
	Strategy string
	Windows  []WindowLog
	// CumUtility is the total accrued utility (Fig. 9's endpoint).
	CumUtility float64
	// TotalActions counts all adaptation actions executed.
	TotalActions int
	// Invocations counts decision-procedure runs.
	Invocations int
	// MeanSearchTime averages SearchTime over invocations.
	MeanSearchTime time.Duration
	// TargetViolations counts app-windows whose measured RT missed the
	// target.
	TargetViolations int
	// ViolationsByApp breaks TargetViolations down per application.
	ViolationsByApp map[string]int
	// EnergyKWh is the total electrical energy drawn over the replay.
	EnergyKWh float64
	// HostHours integrates powered-on hosts over time.
	HostHours float64

	// Degradation accounting (all zero when no faults are injected and
	// every decision succeeds).

	// DegradedWindows counts windows that absorbed at least one failure.
	DegradedWindows int
	// DecideErrors counts decision procedures that returned an error or
	// panicked; the loop logs, counts, and carries on.
	DecideErrors int
	// ExecRejections counts plans the testbed rejected outright.
	ExecRejections int
	// FallbackDecisions counts decisions the strategy itself degraded.
	FallbackDecisions int
	// FailedActions counts actions aborted by injected faults.
	FailedActions int
	// SkippedActions counts plan steps skipped as infeasible after an
	// earlier injected failure.
	SkippedActions int
	// Retries counts re-executions of retryable failed actions.
	Retries int
	// HostCrashes counts injected host crashes.
	HostCrashes int
	// SensorDrops counts windows whose measurements were stale replays.
	SensorDrops int
	// RolledBackActions counts compensating steps executed under
	// testbed.RollbackOnFailure.
	RolledBackActions int
	// CompensatedPlans counts plans that aborted and rolled back.
	CompensatedPlans int
	// GuardRejections counts plans the admission guard refused.
	GuardRejections int
}

// add folds one window's record into the totals. An aborted window books
// what happened before its measurement failed — the charge, what executed,
// its log — and stays out of the totals of completed windows.
func (r *Result) add(w *window, interval time.Duration) {
	r.CumUtility = w.CumUtility
	r.Windows = append(r.Windows, w.WindowLog)
	r.HostCrashes += w.HostCrashes
	r.Retries += w.Retried
	r.TotalActions += w.Actions
	r.FailedActions += w.FailedActions
	r.SkippedActions += w.skipped
	r.RolledBackActions += w.RolledBack
	r.CompensatedPlans += w.compensated
	r.DecideErrors += b2i(w.DecideError)
	r.Invocations += b2i(w.Invoked)
	r.FallbackDecisions += b2i(w.fallback)
	r.GuardRejections += b2i(w.GuardRejected)
	r.ExecRejections += b2i(w.execRejected)
	if w.Aborted {
		return
	}
	r.SensorDrops += b2i(w.SensorDropped)
	r.DegradedWindows += b2i(w.Degraded)
	r.TargetViolations += len(w.violations)
	for _, name := range w.violations {
		r.ViolationsByApp[name]++
	}
	r.EnergyKWh += w.Watts * interval.Hours() / 1000
	r.HostHours += float64(w.ActiveHosts) * interval.Hours()
}

// MeanWatts is the time-averaged power draw over the completed windows: an
// aborted window measured nothing.
func (r *Result) MeanWatts() float64 {
	var sum, n float64
	for _, w := range r.Windows {
		if !w.Aborted {
			sum, n = sum+w.Watts, n+1
		}
	}
	return sum / max(n, 1)
}

// dueRetry returns the index of the first due retry (FIFO), or -1.
func dueRetry(q []RetryState, now time.Duration) int {
	for i, r := range q {
		if r.AtNS <= int64(now) {
			return i
		}
	}
	return -1
}

// queueRetries re-queues the report's retryable failed steps with doubling
// backoff, dropping actions whose attempt budget is exhausted.
func queueRetries(q []RetryState, rep testbed.ExecReport, attempt int, now time.Duration, pol RetryPolicy) []RetryState {
	if pol.MaxAttempts < 0 {
		return q
	}
	if rep.Compensated {
		// The plan aborted as a transaction and the testbed already rolled
		// the applied prefix back: re-executing any of its steps — even
		// ones that failed retryably before the abort — would re-apply
		// fragments of a plan the cluster no longer reflects. The strategy
		// replans from the compensated configuration instead.
		return q
	}
	for _, st := range rep.Steps {
		if st.Status != testbed.StepFailed || !st.Retryable || attempt+1 > pol.MaxAttempts {
			continue
		}
		q = append(q, RetryState{
			Action:  st.Action,
			Attempt: attempt,
			AtNS:    int64(now + pol.Backoff<<(attempt-1)),
		})
	}
	return q
}

// safeDecide shields the replay from a panicking decision procedure: the
// panic becomes an error and the loop degrades to no adaptation.
func safeDecide(d Decider, now time.Duration, cfg cluster.Config, rates map[string]float64) (dec Decision, err error) {
	defer func() {
		if r := recover(); r != nil {
			dec = Decision{}
			err = fmt.Errorf("decide panicked: %v", r)
		}
	}()
	return d.Decide(now, cfg, rates)
}

// Run replays the traces on the testbed under the decider's control. It is
// a thin loop over Engine.Step: batch replay is the resumable engine driven
// to the trace horizon. A window degrades rather than aborts (see
// Engine.StepRates); only an infrastructure error stops the replay, and even
// then the in-progress window (with its already-charged search cost) is
// booked before returning.
func Run(tb *testbed.Testbed, d Decider, cfg RunConfig) (*Result, error) {
	e, err := NewEngine(tb, d, cfg)
	if err != nil {
		return nil, err
	}
	return e.Run()
}
