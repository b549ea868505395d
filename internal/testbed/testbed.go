// Package testbed is the virtual counterpart of the paper's physical
// testbed: it executes adaptation-action plans against a configuration on a
// virtual clock, charges their measured durations and transient
// response-time/power deltas, and produces per-window "measured" metrics
// (mean response time per application, mean system watts, per-host CPU
// utilization).
//
// Two fidelity modes are offered:
//
//   - ModeAnalytic (default): steady-state behaviour comes from the LQN
//     model evaluated with ground-truth parameters plus calibrated
//     measurement noise, and action transients come from the cost tables.
//     This mode is fast enough to replay the full 6.5 h scenarios of the
//     evaluation hundreds of times.
//
//   - ModeRequestLevel: a request-level discrete-event simulation
//     (package queueing) serves every request; migrations inject Dom-0
//     background load and a stop-and-copy pause so transient costs are
//     emergent rather than table-driven. Used for model validation
//     (Fig. 5), migration-cost measurement (Fig. 1), and the offline
//     cost-measurement campaign (Fig. 7).
package testbed

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/lqn"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/power"
	"github.com/mistralcloud/mistral/internal/queueing"
	"github.com/mistralcloud/mistral/internal/sim"
	"github.com/mistralcloud/mistral/internal/stats"
)

// Mode selects the testbed fidelity.
type Mode int

// Fidelity modes.
const (
	ModeAnalytic Mode = iota + 1
	ModeRequestLevel
)

// ExecPolicy selects what Execute does with the already-applied prefix of
// a plan when a step suffers a non-retryable injected failure.
type ExecPolicy int

// Execution policies.
const (
	// FailForward keeps the partially applied prefix in place: the cluster
	// stays in the intermediate configuration the failure left it in and
	// the controller replans from there. This is the golden default — a
	// testbed built with the zero Options value behaves byte-identically
	// to one built before ExecPolicy existed.
	FailForward ExecPolicy = iota
	// RollbackOnFailure treats each plan as a transaction: on a
	// non-retryable failure the testbed synthesizes the compensating
	// inverse plan for the applied prefix and executes it on the timeline,
	// charging real rollback costs, so the cluster provably returns to the
	// pre-plan configuration fingerprint. Retryable failures still fail
	// forward (the retry queue may yet complete the step).
	RollbackOnFailure
)

func (p ExecPolicy) String() string {
	switch p {
	case FailForward:
		return "fail-forward"
	case RollbackOnFailure:
		return "rollback-on-failure"
	}
	return fmt.Sprintf("ExecPolicy(%d)", int(p))
}

// ParseExecPolicy maps a policy name (a flag value or a checkpoint recipe
// field) onto its ExecPolicy. The empty string is FailForward, matching
// checkpoints written before the field existed; "rollback" is accepted as
// shorthand for "rollback-on-failure".
func ParseExecPolicy(s string) (ExecPolicy, error) {
	switch strings.ToLower(s) {
	case "", "fail-forward":
		return FailForward, nil
	case "rollback", "rollback-on-failure":
		return RollbackOnFailure, nil
	}
	return 0, fmt.Errorf("testbed: unknown exec policy %q (want fail-forward or rollback)", s)
}

// Options configures a Testbed.
type Options struct {
	// Mode defaults to ModeAnalytic.
	Mode Mode
	// Seed drives measurement noise and the request-level simulator.
	Seed uint64
	// RTNoise is the relative stddev of per-window response-time
	// measurement noise in analytic mode (default 0.03; negative for 0).
	RTNoise float64
	// WattsNoise is the relative stddev of per-window power measurement
	// noise in analytic mode (default 0.015; negative for 0).
	WattsNoise float64
	// ClosedLoop drives request-level traffic with the paper's client
	// emulator model — a fixed population of sessions (8 per req/s of
	// offered rate) with exponential think times — instead of an open
	// Poisson stream. Closed loops bound queue growth under transient
	// overload exactly as real user populations do.
	ClosedLoop bool
	// Fault optionally injects action failures, transient delays, and sensor
	// faults (package fault). Nil — the default — executes every plan
	// infallibly, byte-identical to a testbed built without the fault plane.
	Fault *fault.Injector
	// Exec selects how Execute treats a non-retryable mid-plan failure:
	// FailForward (the zero value, today's behavior) keeps the partially
	// applied prefix; RollbackOnFailure compensates it back to the pre-plan
	// configuration. See ExecPolicy.
	Exec ExecPolicy
	// Obs overrides the process-default observer (obs.SetDefault) for
	// action-execution metrics and trace events; nil resolves the default.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.Mode == 0 {
		o.Mode = ModeAnalytic
	}
	switch {
	case o.RTNoise == 0:
		o.RTNoise = 0.03
	case o.RTNoise < 0:
		o.RTNoise = 0
	}
	switch {
	case o.WattsNoise == 0:
		o.WattsNoise = 0.015
	case o.WattsNoise < 0:
		o.WattsNoise = 0
	}
	return o
}

const (
	// migrationDom0Load is the fraction of the Dom-0 share consumed on the
	// source and destination hosts while a live migration copies pages in
	// request-level mode.
	migrationDom0Load = 0.6
	// migrationVMSlowdown is the fraction of the migrating VM's CPU lost to
	// shadow page-table maintenance and page dirtying while the migration
	// runs in request-level mode.
	migrationVMSlowdown = 0.15
	// migrationDowntime is the stop-and-copy pause at the end of a live
	// migration in request-level mode.
	migrationDowntime = 300 * time.Millisecond
	// migrationNetWatts is the per-involved-host power draw of the NIC,
	// chipset, and memory subsystem while migration traffic flows — power
	// that CPU utilization alone does not capture.
	migrationNetWatts = 8
	// closedLoopThink is the mean think time of emulated sessions, which
	// makes 8 sessions offer ≈1 req/s at the 400 ms operating point.
	closedLoopThink = 7600 * time.Millisecond
)

// phase is one scheduled action execution on the timeline.
type phase struct {
	start, end   time.Duration
	action       cluster.Action
	pred         cost.Prediction
	cfgAfter     cluster.Config
	applyAtStart bool // stop-host applies its config when the phase begins
	applied      bool
	failed       bool // injected failure: cfgAfter is the unchanged config
	rollback     bool // compensating step undoing an applied step of an aborted plan
}

// Testbed executes plans and measures the resulting system.
type Testbed struct {
	opts    Options
	cat     *cluster.Catalog
	apps    []*app.Spec
	model   *lqn.Model
	costMgr *cost.Manager
	noise   *sim.RNG

	now time.Duration
	// cfg is the configuration in effect, cfgFinal the one after every
	// scheduled phase. Neither, nor any phase's cfgAfter, is written once
	// assigned: each is replaced by another configuration, so they share
	// maps (CloneShared) where they are equal or one action apart.
	cfg      cluster.Config
	cfgFinal cluster.Config
	rates    map[string]float64
	phases   []phase

	qsys *queueing.System
	// desErr is the first error a scheduled DES operation returned; every
	// later measurement fails with it, as the DES no longer follows cfg.
	desErr error

	// lastMeas caches the previously reported window so an injected sensor
	// drop can replay it; only maintained when a fault injector is set.
	lastMeas *Window

	obsv     *obs.Observer
	cActions *obs.Counter
	cSkipped *obs.Counter
	hActionS *obs.Histogram
	cByKind  map[cluster.ActionKind]*obs.Counter
	trace    obs.TraceContext // current window's causal identity
}

// SetTrace installs the current monitoring window's trace context; the
// testbed's action and crash trace events carry its ID so they join the
// window's causal story. The scenario loop calls it once per window
// (the testbed is driven single-threaded).
func (tb *Testbed) SetTrace(tc obs.TraceContext) { tb.trace = tc }

// New builds a testbed in the given initial configuration and workload.
func New(cat *cluster.Catalog, apps []*app.Spec, initial cluster.Config, rates map[string]float64, costTable *cost.Table, opts Options) (*Testbed, error) {
	opts = opts.withDefaults()
	if vs := initial.Validate(cat); len(vs) > 0 {
		return nil, fmt.Errorf("testbed: initial config invalid: %v", vs[0])
	}
	model, err := lqn.NewModel(cat, apps)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	if costTable == nil {
		costTable = cost.PaperTable()
	}
	costMgr, err := cost.NewManager(cat, costTable, 8)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	cfg := initial.Clone()
	tb := &Testbed{
		opts:     opts,
		cat:      cat,
		apps:     apps,
		model:    model,
		costMgr:  costMgr,
		noise:    sim.NewRNG(opts.Seed, 0x7e57bed),
		cfg:      cfg,
		cfgFinal: cfg,
		rates:    make(map[string]float64, len(rates)),
	}
	for k, v := range rates {
		tb.rates[k] = v
	}
	o := obs.Resolve(opts.Obs)
	tb.obsv = o
	tb.cActions = o.Counter("actions_total")
	tb.cSkipped = o.Counter("fault_steps_skipped_total")
	tb.hActionS = o.Histogram("action_duration_s", []float64{1, 5, 15, 30, 60, 120, 300, 600})
	if tb.cActions != nil {
		tb.cByKind = make(map[cluster.ActionKind]*obs.Counter)
	}
	if opts.Mode == ModeRequestLevel {
		tb.qsys, err = queueing.New(cat, apps, initial, opts.Seed+1)
		if err != nil {
			return nil, fmt.Errorf("testbed: %w", err)
		}
		if err := tb.applyRates(tb.rates); err != nil {
			return nil, err
		}
	}
	return tb, nil
}

// applyRates propagates offered rates to the request-level simulator, each
// application's as a Poisson stream or a closed session population. Every
// stream draws from the simulator's one generator, so they start in sorted
// application order: map order would hand each application different
// random numbers from run to run.
func (tb *Testbed) applyRates(rates map[string]float64) error {
	names := make([]string, 0, len(rates))
	for name := range rates {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var err error
		if r := rates[name]; tb.opts.ClosedLoop {
			err = tb.qsys.SetSessions(name, int(r*8+0.5), closedLoopThink)
		} else {
			err = tb.qsys.SetRate(name, r)
		}
		if err != nil {
			return fmt.Errorf("testbed: %w", err)
		}
	}
	return nil
}

// Now returns the virtual clock.
func (tb *Testbed) Now() time.Duration { return tb.now }

// Mode returns the testbed's fidelity mode.
func (tb *Testbed) Mode() Mode { return tb.opts.Mode }

// Fault returns the fault injector (nil when the fault plane is disabled).
func (tb *Testbed) Fault() *fault.Injector { return tb.opts.Fault }

// Config returns the configuration currently in effect (transitions apply
// as phases complete). The returned value is a copy-on-write copy: mutating
// it leaves the testbed unchanged.
func (tb *Testbed) Config() cluster.Config { return tb.cfg.CloneShared() }

// FinalConfig returns the configuration the system will reach once all
// scheduled phases complete, as a copy-on-write copy like Config.
func (tb *Testbed) FinalConfig() cluster.Config { return tb.cfgFinal.CloneShared() }

// Rates returns the current per-application request rates (a copy).
func (tb *Testbed) Rates() map[string]float64 {
	out := make(map[string]float64, len(tb.rates))
	for k, v := range tb.rates {
		out[k] = v
	}
	return out
}

// Catalog exposes the managed catalog.
func (tb *Testbed) Catalog() *cluster.Catalog { return tb.cat }

// Apps exposes the application specs.
func (tb *Testbed) Apps() []*app.Spec { return tb.apps }

// CostManager exposes the cost manager (shared with controllers that want
// the same tables the testbed charges).
func (tb *Testbed) CostManager() *cost.Manager { return tb.costMgr }

// SetRates changes the offered request rates from the current instant. The
// map must be total: a rate for every application the testbed models. One
// that omits an application, names one the testbed does not model, or holds
// a rate that is negative or not finite is refused before anything changes:
// an omitted application would keep its previous rate here while the window's
// record and the decider read it as zero, an unknown one would fail every
// later measurement, and a negative rate would be run.
func (tb *Testbed) SetRates(rates map[string]float64) error {
	apps := tb.model.Apps()
	var bad string // the first offender in name order is reported
	found := false
	for name, r := range rates {
		_, known := apps[name]
		if (!known || !(r >= 0) || math.IsInf(r, 1)) && (!found || name < bad) {
			bad, found = name, true
		}
	}
	if found {
		if _, known := apps[bad]; !known {
			return fmt.Errorf("testbed: rates name unknown application %q", bad)
		}
		return fmt.Errorf("testbed: application %q: rate %v is not a finite non-negative number", bad, rates[bad])
	}
	for name := range apps {
		if _, ok := rates[name]; !ok && (!found || name < bad) {
			bad, found = name, true
		}
	}
	if found {
		return fmt.Errorf("testbed: rates omit application %q", bad)
	}
	for k, v := range rates {
		tb.rates[k] = v
	}
	if tb.qsys == nil {
		return nil
	}
	return tb.applyRates(rates)
}

// BusyUntil returns the completion time of the last scheduled phase, or the
// current time when idle.
func (tb *Testbed) BusyUntil() time.Duration {
	if len(tb.phases) == 0 {
		return tb.now
	}
	return tb.phases[len(tb.phases)-1].end
}

// Busy reports whether actions are still executing or scheduled.
func (tb *Testbed) Busy() bool { return tb.BusyUntil() > tb.now }

// StepStatus is the outcome of one plan step.
type StepStatus int

// Step outcomes.
const (
	// StepApplied: the action completed and its configuration change took
	// (or will take) effect.
	StepApplied StepStatus = iota + 1
	// StepFailed: an injected failure aborted the action mid-flight; the
	// configuration is unchanged but the sunk transient cost is charged.
	StepFailed
	// StepSkipped: the step was infeasible against the realized
	// configuration (its precondition was destroyed by an earlier injected
	// failure) and consumed no time.
	StepSkipped
	// StepRolledBack: a compensating step executed under RollbackOnFailure
	// to undo a previously applied step of the same plan. Its Action is
	// the inverse action, and its cost is charged on the timeline.
	StepRolledBack
)

func (s StepStatus) String() string {
	switch s {
	case StepApplied:
		return "applied"
	case StepFailed:
		return "failed"
	case StepSkipped:
		return "skipped"
	case StepRolledBack:
		return "rolled-back"
	}
	return fmt.Sprintf("StepStatus(%d)", int(s))
}

// StepReport records one plan step's realized outcome.
type StepReport struct {
	// Action is the step with derived fields filled in (FromHost, CPUPct) —
	// for failed and skipped steps, as it would have executed.
	Action cluster.Action
	Status StepStatus
	// Planned is the cost-table duration; Realized is the time actually
	// consumed on the timeline (longer under an injected delay, the sunk
	// fraction under a failure, zero when skipped).
	Planned, Realized time.Duration
	// Retryable marks an injected failure as transient — re-executing the
	// action may succeed.
	Retryable bool
	// Err describes the failure or skip.
	Err error
}

// ExecReport is the per-step outcome of an executed plan.
type ExecReport struct {
	Steps []StepReport
	// Duration is the plan's total timeline occupancy (the testbed stays
	// Busy this long).
	Duration time.Duration
	// Applied, Failed, and Skipped count steps by status.
	Applied, Failed, Skipped int
	// RolledBack counts compensating steps executed after a non-retryable
	// failure under RollbackOnFailure.
	RolledBack int
	// Compensated reports that a non-retryable failure aborted the plan
	// and the applied prefix was rolled back; FinalFP equals PrePlanFP.
	Compensated bool
	// PrePlanFP and FinalFP fingerprint the scheduled final configuration
	// before the plan and after it completes (or rolls back), so callers
	// can verify the transactional guarantee without re-deriving configs.
	PrePlanFP, FinalFP cluster.Fingerprint
}

// Started counts steps that consumed timeline time (applied + failed).
func (r ExecReport) Started() int { return r.Applied + r.Failed }

// Execute schedules a plan of adaptation actions to run sequentially
// starting when all previously scheduled work completes, and reports each
// step's realized outcome. Without a fault injector every step applies and
// the plan is validated against the final scheduled configuration — an
// invalid step rejects the whole plan with an error, exactly as before the
// fault plane existed. With an injector, steps may fail mid-flight (the
// configuration change is lost but the sunk transient cost is charged —
// a migration that dies at 80% has already copied 80% of the pages), run
// long, or be skipped when an earlier failure destroyed their
// precondition.
func (tb *Testbed) Execute(plan []cluster.Action) (ExecReport, error) {
	startAt := tb.BusyUntil()
	cur := tb.cfgFinal
	inj := tb.opts.Fault
	var rep ExecReport
	if len(plan) > 0 {
		rep.Steps = make([]StepReport, 0, len(plan))
	}
	// The plan's phases are appended to the timeline as they are scheduled;
	// a rejected plan takes them off again.
	first := len(tb.phases)
	// undo records the applied prefix so RollbackOnFailure can compensate
	// it: each entry pairs the filled forward action with the configuration
	// it was applied to. Only an injected failure can abort a plan.
	type undoRec struct {
		action cluster.Action
		before cluster.Config
	}
	var undo []undoRec
	mayAbort := tb.opts.Exec == RollbackOnFailure && inj.Enabled()
	rep.PrePlanFP = cur.Fingerprint()
	at := startAt
	for i, a := range plan {
		filled, d, err := cluster.Stage(tb.cat, cur, a)
		if err != nil {
			if inj.Enabled() {
				// An earlier injected failure may have invalidated this
				// step's precondition (e.g. the replica its migration would
				// move never started). Degrade: skip the step, execute the
				// rest.
				rep.Steps = append(rep.Steps, StepReport{
					Action: a,
					Status: StepSkipped,
					Err:    fmt.Errorf("testbed: plan step %d: %w", i, err),
				})
				rep.Skipped++
				tb.cSkipped.Inc()
				continue
			}
			tb.phases = tb.phases[:first]
			return ExecReport{}, fmt.Errorf("testbed: plan step %d: %w", i, err)
		}
		pred := tb.costMgr.Predict(cur, filled, tb.rates)
		f := inj.Action(filled.Kind)
		dur := pred.Duration
		if f.DelayMult > 1 {
			dur = time.Duration(float64(dur) * f.DelayMult)
		}
		step := StepReport{Action: filled, Planned: pred.Duration}
		ph := phase{start: at, action: filled, pred: pred}
		if f.Fail {
			sunk := time.Duration(float64(dur) * f.SunkFraction)
			ph.end = at + sunk
			ph.cfgAfter = cur // the change is lost
			ph.failed = true
			step.Status = StepFailed
			step.Realized = sunk
			step.Retryable = f.Retryable
			step.Err = fmt.Errorf("testbed: injected %s failure after %v of %v", filled.Kind, sunk.Round(time.Millisecond), dur.Round(time.Millisecond))
			rep.Failed++
			if tb.opts.Exec == RollbackOnFailure && !f.Retryable {
				// Transaction abort: the sunk cost of the doomed step is
				// already charged; abandon the rest of the plan and unwind
				// the applied prefix.
				tb.phases = append(tb.phases, ph)
				at = ph.end
				rep.Steps = append(rep.Steps, step)
				for j := i + 1; j < len(plan); j++ {
					rep.Steps = append(rep.Steps, StepReport{
						Action: plan[j],
						Status: StepSkipped,
						Err:    fmt.Errorf("testbed: plan step %d abandoned: plan rolled back", j),
					})
					rep.Skipped++
					tb.cSkipped.Inc()
				}
				for k := len(undo) - 1; k >= 0; k-- {
					u := undo[k]
					inv, err := cluster.Inverse(u.action, u.before)
					if err != nil {
						// Cannot happen for actions Stage accepted; guard
						// anyway so a future kind fails loudly.
						tb.phases = tb.phases[:first]
						return ExecReport{}, fmt.Errorf("testbed: rollback step %d: %w", k, err)
					}
					// Compensation executes infallibly — no injector draws —
					// so the cluster deterministically reaches the recorded
					// pre-step configuration; the rollback cost is the cost
					// table's real price for the inverse action.
					ipred := tb.costMgr.Predict(cur, inv, tb.rates)
					iph := phase{
						start:        at,
						end:          at + ipred.Duration,
						action:       inv,
						pred:         ipred,
						cfgAfter:     u.before,
						applyAtStart: phaseTable[inv.Kind].applyAtStart,
						rollback:     true,
					}
					tb.phases = append(tb.phases, iph)
					at = iph.end
					rep.Steps = append(rep.Steps, StepReport{
						Action:   inv,
						Status:   StepRolledBack,
						Planned:  ipred.Duration,
						Realized: ipred.Duration,
					})
					rep.RolledBack++
					cur = u.before
				}
				rep.Compensated = true
				break
			}
		} else {
			// The step's configuration shares every map with the one before
			// but the map the action writes.
			next := cur.CloneShared()
			next.ApplyDelta(d)
			ph.end = at + dur
			ph.cfgAfter = next
			ph.applyAtStart = phaseTable[filled.Kind].applyAtStart
			step.Status = StepApplied
			step.Realized = dur
			rep.Applied++
			if mayAbort {
				undo = append(undo, undoRec{action: filled, before: cur})
			}
			cur = next
		}
		if step.Status == StepFailed || step.Status == StepApplied {
			tb.phases = append(tb.phases, ph)
			at = ph.end
			rep.Steps = append(rep.Steps, step)
		}
	}
	rep.Duration = at - startAt
	rep.FinalFP = cur.Fingerprint()
	newPhases := tb.phases[first:]
	tb.cfgFinal = cur
	if tb.qsys != nil {
		tb.injectPhases(newPhases)
	}
	if tb.cActions != nil {
		tb.recordPhases(newPhases)
	}
	return rep, nil
}

// recordPhases emits metrics and trace events for newly scheduled phases.
// Only called when observability is enabled (tb.cActions != nil), so the
// disabled path stays allocation-free.
func (tb *Testbed) recordPhases(phases []phase) {
	tr := tb.obsv.Tracer()
	for _, ph := range phases {
		kind := ph.action.Kind
		c := tb.cByKind[kind]
		if c == nil {
			c = tb.obsv.Counter("actions_" + strings.ReplaceAll(kind.String(), "-", "_") + "_total")
			tb.cByKind[kind] = c
		}
		tb.cActions.Inc()
		c.Inc()
		tb.hActionS.Observe(ph.pred.Duration.Seconds())
		attrs := []obs.Attr{
			{Key: "vm", Value: ph.action.VM},
			{Key: "host", Value: ph.action.Host},
		}
		if ph.failed {
			attrs = append(attrs, obs.Attr{Key: "failed", Value: true})
		}
		if ph.rollback {
			attrs = append(attrs, obs.Attr{Key: "rollback", Value: true})
		}
		if tb.trace.Enabled() {
			attrs = append(attrs, tb.trace.Attr())
		}
		tr.Event("action:"+kind.String(), ph.start, ph.end, attrs...)
	}
}

// desOp is one request-level DES operation of a phase, which runOp applies
// to the phase's action and configuration after.
type desOp uint8

// DES operations: first the transient churn, then, from vmFrozen on, the
// operations that commit the configuration change (see commits).
const (
	srcLoaded desOp = iota
	srcIdle
	dstLoaded
	dstIdle
	vmSlowed
	vmResumed
	vmFrozen
	vmCapped
	vmMoved
	vmAdded
	vmRemoved
	hostFreq
	hostAdded
	hostRemoved
)

// commits reports whether op is part of the action's configuration change
// rather than its transient churn. A phase that fails mid-flight runs only
// the transient operations: the Dom-0 copy load and the shadow-paging
// slowdown come and go, but the VM never freezes, moves, starts or stops,
// no cap or frequency changes, and no host powers up or down.
func (op desOp) commits() bool { return op >= vmFrozen }

// phaseRow is what one action kind does on the timeline: the DES operations
// at the phase's start, at its end − downtime (the stop-and-copy freeze) and
// at its end, each boundary's in the order they run.
type phaseRow struct {
	start, freeze, end []desOp
	dom0               float64       // the Dom-0 share srcLoaded and dstLoaded consume
	downtime           time.Duration // the stop-and-copy pause before the end
	netHosts           float64       // hosts drawing migrationNetWatts while the phase runs, failed or not
	cycleWatts         bool          // the phase draws its predicted DeltaWatts (boot or shutdown), failed or not
	applyAtStart       bool          // the configuration changes as the phase begins (a host stops taking work)
}

// phaseTable is, per action kind, the measured transient of §III-C as the
// request-level DES plays it. A replica add or remove copies to or from the
// cold-store repository, the second host drawing network power.
var phaseTable = [...]phaseRow{
	cluster.ActionIncreaseCPU:   {end: []desOp{vmCapped}},
	cluster.ActionDecreaseCPU:   {end: []desOp{vmCapped}},
	cluster.ActionAddReplica:    {start: []desOp{dstLoaded}, end: []desOp{dstIdle, vmAdded}, dom0: migrationDom0Load * 0.8, netHosts: 2},
	cluster.ActionRemoveReplica: {start: []desOp{srcLoaded, vmRemoved}, end: []desOp{srcIdle}, dom0: migrationDom0Load * 0.6, netHosts: 2},
	cluster.ActionMigrate:       migration(migrationDom0Load, migrationDowntime),
	cluster.ActionStartHost:     {end: []desOp{hostAdded}, cycleWatts: true},
	cluster.ActionStopHost:      {start: []desOp{hostRemoved}, cycleWatts: true, applyAtStart: true},
	cluster.ActionSetDVFS:       {end: []desOp{hostFreq}},
	// Over the WAN: a lighter but sustained copy and a longer pause.
	cluster.ActionWANMigrate: migration(migrationDom0Load*0.5, 4*migrationDowntime),
}

// migration is a live migration's row: Dom-0 copy load at both ends and the
// shadow-paging slowdown, the stop-and-copy freeze, then the move and the
// resume at full allocation on the destination.
func migration(dom0 float64, downtime time.Duration) phaseRow {
	return phaseRow{
		start:    []desOp{srcLoaded, dstLoaded, vmSlowed},
		freeze:   []desOp{vmFrozen},
		end:      []desOp{srcIdle, dstIdle, vmMoved, vmResumed},
		dom0:     dom0,
		downtime: downtime,
		netHosts: 2,
	}
}

// injectPhases schedules newly planned phases on the request-level DES: per
// phase, one event for each boundary with operations to run, in time order,
// so same-instant events keep their FIFO order. The first operation to fail
// is kept in desErr.
func (tb *Testbed) injectPhases(phases []phase) {
	eng := tb.qsys.Engine()
	for _, ph := range phases {
		row := &phaseTable[ph.action.Kind]
		at := [...]time.Duration{ph.start, ph.end - row.downtime, ph.end}
		for b, ops := range [...][]desOp{row.start, row.freeze, row.end} {
			var run []desOp
			for _, op := range ops {
				if !ph.failed || !op.commits() {
					run = append(run, op)
				}
			}
			if len(run) == 0 {
				continue
			}
			eng.ScheduleAt(at[b], func() {
				for _, op := range run {
					if err := tb.runOp(ph, row, op); err != nil && tb.desErr == nil {
						tb.desErr = fmt.Errorf("testbed: %s at %v: %w", ph.action, at[b], err)
					}
				}
			})
		}
	}
}

// runOp applies one DES operation of ph.
func (tb *Testbed) runOp(ph phase, row *phaseRow, op desOp) error {
	a, q := ph.action, tb.qsys
	switch op {
	case srcLoaded:
		return q.SetDom0Background(a.FromHost, row.dom0)
	case srcIdle:
		return q.SetDom0Background(a.FromHost, 0)
	case dstLoaded:
		return q.SetDom0Background(a.Host, row.dom0)
	case dstIdle:
		return q.SetDom0Background(a.Host, 0)
	case vmSlowed:
		return q.SetVMRate(a.VM, a.CPUPct*(1-migrationVMSlowdown))
	case vmResumed:
		return q.SetVMRate(a.VM, a.CPUPct)
	case vmFrozen:
		return q.SetVMRate(a.VM, 0)
	case vmCapped:
		if p, ok := ph.cfgAfter.PlacementOf(a.VM); ok {
			return q.SetVMRate(a.VM, p.CPUPct)
		}
	case vmMoved:
		return q.MoveVM(a.VM, a.Host)
	case vmAdded:
		if p, ok := ph.cfgAfter.PlacementOf(a.VM); ok {
			return q.AddVM(a.VM, p.Host, p.CPUPct)
		}
	case vmRemoved:
		return q.RemoveVM(a.VM)
	case hostFreq:
		allocs := make(map[cluster.VMID]float64)
		for _, id := range ph.cfgAfter.VMsOnHost(a.Host) {
			if p, ok := ph.cfgAfter.PlacementOf(id); ok {
				allocs[id] = p.CPUPct
			}
		}
		return q.SetHostFreq(a.Host, a.Freq, allocs)
	case hostAdded:
		return q.AddHost(a.Host)
	case hostRemoved:
		return q.RemoveHost(a.Host)
	}
	return nil
}

// advanceTo moves the clock forward, applying phase transitions.
func (tb *Testbed) advanceTo(t time.Duration) error {
	if t < tb.now {
		return fmt.Errorf("testbed: cannot advance backwards from %v to %v", tb.now, t)
	}
	for i := range tb.phases {
		ph := &tb.phases[i]
		if ph.applied {
			continue
		}
		boundary := ph.end
		if ph.applyAtStart {
			boundary = ph.start
		}
		if boundary <= t {
			tb.cfg = ph.cfgAfter
			ph.applied = true
		}
	}
	// Drop fully elapsed phases.
	kept := tb.phases[:0]
	for _, ph := range tb.phases {
		if ph.end > t {
			kept = append(kept, ph)
		}
	}
	tb.phases = kept
	tb.now = t
	if tb.qsys != nil {
		if err := tb.qsys.Run(t); err != nil {
			return fmt.Errorf("testbed: %w", err)
		}
	}
	return tb.desErr
}

// Window is one measurement window's aggregated "measured" metrics.
type Window struct {
	From, To time.Duration
	// RTSec is the time-weighted mean response time per application. Apps
	// with zero offered load report zero.
	RTSec map[string]float64
	// Watts is the time-weighted mean system power draw.
	Watts float64
	// HostUtil is the time-weighted mean CPU utilization per powered host.
	HostUtil map[string]float64
	// Completed counts completed requests per app (request-level mode).
	Completed map[string]uint64
	// SensorDropped marks an injected sensor drop: RTSec and Watts replay
	// the previous window's reported values (HostUtil and Completed stay
	// true — they come from a different collection path).
	SensorDropped bool
}

// MeasureWindow advances the clock to 'to' and returns metrics aggregated
// over (Now, to]. In analytic mode the window integrates the piecewise-
// constant model exactly across phase boundaries; in request-level mode it
// is measured from simulated requests.
func (tb *Testbed) MeasureWindow(to time.Duration) (Window, error) {
	if to <= tb.now {
		return Window{}, fmt.Errorf("testbed: window end %v not after now %v", to, tb.now)
	}
	var w Window
	var err error
	if tb.opts.Mode == ModeRequestLevel {
		w, err = tb.measureWindowRequestLevel(to)
	} else {
		w, err = tb.measureWindowAnalytic(to)
	}
	if err != nil {
		return w, err
	}
	if inj := tb.opts.Fault; inj.Enabled() {
		w = tb.applySensorFaults(inj, w)
	}
	return w, nil
}

// applySensorFaults layers injected sensor faults over a measured window: a
// dropped window replays the previous window's reported RT/power values (a
// stale sensor read — the first window cannot drop), and otherwise extra
// noise perturbs the measurements. Either way the reported window is cached
// for the next drop.
func (tb *Testbed) applySensorFaults(inj *fault.Injector, w Window) Window {
	if inj.Sensor().Drop && tb.lastMeas != nil {
		w.RTSec = make(map[string]float64, len(tb.lastMeas.RTSec))
		for name, rt := range tb.lastMeas.RTSec {
			w.RTSec[name] = rt
		}
		w.Watts = tb.lastMeas.Watts
		w.SensorDropped = true
	} else {
		// Extra noise, applied in sorted app order so draws are reproducible.
		names := make([]string, 0, len(w.RTSec))
		for name := range w.RTSec {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			w.RTSec[name] = inj.SensorJitter(w.RTSec[name])
		}
		w.Watts = inj.SensorJitter(w.Watts)
	}
	snap := w
	tb.lastMeas = &snap
	return w
}

// measureWindowAnalytic integrates the window over its constant segments:
// each segment's configuration is solved dense (lqn.Model.Solve) and priced
// with power.SystemWattsDense over the Solution's per-host slices, the pair
// core.Evaluator prices a steady state with, so nothing per segment is a map.
// The Window's maps are the only ones built: RTSec for the applications with
// load, HostUtil for every catalog host.
func (tb *Testbed) measureWindowAnalytic(to time.Duration) (Window, error) {
	from := tb.now
	hosts := tb.cat.HostNames()
	w := Window{
		From:     from,
		To:       to,
		RTSec:    make(map[string]float64),
		HostUtil: make(map[string]float64, len(hosts)),
	}

	// Breakpoints: every phase start/end (and apply boundary) inside the
	// window splits it into segments with constant behaviour.
	cuts := []time.Duration{from, to}
	for _, ph := range tb.phases {
		for _, b := range [...]time.Duration{ph.start, ph.end} {
			if b > from && b < to {
				cuts = append(cuts, b)
			}
		}
	}
	slices.Sort(cuts)

	total := (to - from).Seconds()
	for i := 0; i+1 < len(cuts); i++ {
		segFrom, segTo := cuts[i], cuts[i+1]
		if segTo <= segFrom {
			continue
		}
		mid := segFrom + (segTo-segFrom)/2
		cfg, deltaRT, deltaWatts := tb.stateAt(mid)
		sol, err := tb.model.Solve(cfg, nil, tb.rates)
		if err != nil {
			return Window{}, fmt.Errorf("testbed: %w", err)
		}
		weight := (segTo - segFrom).Seconds() / total
		for hi, h := range hosts {
			w.HostUtil[h] += weight * sol.HostCPUUtil[hi]
		}
		watts := power.SystemWattsDense(tb.cat.HostSpecs(), sol.HostOn, sol.HostCPUUtil, sol.HostFreq) + deltaWatts
		w.Watts += weight * watts
		for ai, name := range tb.model.AppNames() {
			if tb.rates[name] <= 0 {
				continue
			}
			rt := sol.MeanRTSec[ai] + deltaRT[name]
			w.RTSec[name] += weight * rt
		}
		tb.model.Release(sol)
	}

	// Measurement noise, applied once per window. Apps are visited in
	// sorted order so noise draws are reproducible across runs (map
	// iteration order would otherwise shuffle them).
	for _, name := range tb.model.AppNames() {
		if rt, ok := w.RTSec[name]; ok {
			w.RTSec[name] = tb.noise.Jitter(rt, tb.opts.RTNoise)
		}
	}
	w.Watts = tb.noise.Jitter(w.Watts, tb.opts.WattsNoise)

	if err := tb.advanceTo(to); err != nil {
		return Window{}, err
	}
	return w, nil
}

// stateAt returns the configuration in effect at time t plus the transient
// deltas of phases active at t. The response-time deltas are nil while no
// phase is active.
func (tb *Testbed) stateAt(t time.Duration) (cluster.Config, map[string]float64, float64) {
	cfg := tb.cfg
	var deltaRT map[string]float64
	var deltaWatts float64
	for _, ph := range tb.phases {
		boundary := ph.end
		if ph.applyAtStart {
			boundary = ph.start
		}
		if boundary <= t {
			cfg = ph.cfgAfter
		}
		if ph.start <= t && t < ph.end {
			deltaWatts += ph.pred.DeltaWatts
			if deltaRT == nil {
				deltaRT = make(map[string]float64, len(ph.pred.DeltaRTSec))
			}
			for name, d := range ph.pred.DeltaRTSec {
				deltaRT[name] += d
			}
		}
	}
	return cfg, deltaRT, deltaWatts
}

func (tb *Testbed) measureWindowRequestLevel(to time.Duration) (Window, error) {
	from := tb.now
	// Compute transient network power before advanceTo drops elapsed phases.
	netWatts := tb.windowNetWatts(from, to)
	tb.qsys.ResetWindow()
	if err := tb.advanceTo(to); err != nil {
		return Window{}, err
	}
	snap := tb.qsys.Snapshot()
	w := Window{
		From:      from,
		To:        to,
		RTSec:     make(map[string]float64, len(snap.Apps)),
		HostUtil:  snap.HostUtil,
		Completed: make(map[string]uint64, len(snap.Apps)),
	}
	for name, aw := range snap.Apps {
		w.RTSec[name] = aw.MeanRTSec
		w.Completed[name] = aw.Completed
	}
	// Watts: the power model over the configuration in effect and the
	// measured utilization, which already holds the migrations' Dom-0 and
	// shadow-paging CPU, plus the data movers' network power.
	baseCfg, _, _ := tb.stateAt(to)
	util := make(map[string]float64, len(snap.HostUtil))
	for h, u := range snap.HostUtil {
		util[h] = stats.Clamp(u+0.02, 0, 1) // housekeeping floor, as in the LQN
	}
	w.Watts = power.SystemWatts(tb.cat, baseCfg, util) + netWatts
	return w, nil
}

// CrashReport describes one injected host crash and its emergency recovery.
type CrashReport struct {
	// Host is the crashed host.
	Host string
	// Displaced lists the VMs that were running on the host when it died.
	Displaced []cluster.VMID
	// Restarted maps each displaced VM the HA restart could re-place to its
	// recovery host.
	Restarted map[cluster.VMID]string
	// Stranded lists displaced VMs no surviving host had room for; they stay
	// dormant until a controller re-adds them.
	Stranded []cluster.VMID
	// Recovery is the duration of the restart transient (the testbed stays
	// Busy this long).
	Recovery time.Duration
}

// CrashHost fails a powered-on host immediately: its VMs are dropped, the
// host goes dark, and a deterministic HA restart re-places each displaced
// VM on the surviving host with the most free CPU (greedy best-fit in
// sorted VM order; ties break to the lexicographically first host). Each
// restart charges replica-start transients, so the window after a crash
// pays both the lost capacity and the recovery churn. VMs that fit nowhere
// stay dormant — the analytic model degrades them to saturation rather
// than erroring — and when the crashed host was the last one powered on it
// reboots with its VMs restored (the "cold HA" path) so the system never
// wedges. Only supported in analytic mode while the testbed is idle.
func (tb *Testbed) CrashHost(host string) (CrashReport, error) {
	if tb.opts.Mode == ModeRequestLevel {
		return CrashReport{}, fmt.Errorf("testbed: host crashes are not supported in request-level mode")
	}
	if tb.Busy() {
		return CrashReport{}, fmt.Errorf("testbed: cannot crash %q while actions execute", host)
	}
	if !tb.cfg.HostOn(host) {
		return CrashReport{}, fmt.Errorf("testbed: host %q is not powered on", host)
	}
	cfg := tb.cfg.Clone()
	rep := CrashReport{Host: host, Restarted: make(map[cluster.VMID]string)}
	rep.Displaced = cfg.VMsOnHost(host)
	prev := make(map[cluster.VMID]cluster.Placement, len(rep.Displaced))
	for _, id := range rep.Displaced {
		p, _ := cfg.PlacementOf(id)
		prev[id] = p
		cfg.Unplace(id)
	}
	cfg.SetHostOn(host, false)
	cfg.SetHostFreq(host, 1)

	merged := cost.Prediction{DeltaRTSec: make(map[string]float64)}
	restart := func(id cluster.VMID, target string, cpuPct float64) {
		a := cluster.Action{Kind: cluster.ActionAddReplica, VM: id, Host: target, CPUPct: cpuPct}
		pred := tb.costMgr.Predict(cfg, a, tb.rates)
		cfg.Place(id, target, cpuPct)
		rep.Restarted[id] = target
		if pred.Duration > merged.Duration {
			merged.Duration = pred.Duration
		}
		merged.DeltaWatts += pred.DeltaWatts
		for name, d := range pred.DeltaRTSec {
			merged.DeltaRTSec[name] += d
		}
	}

	if cfg.NumActiveHosts() == 0 {
		// Last host standing: reboot it with its VMs restored, charging a
		// host start plus the replica restarts.
		cfg.SetHostOn(host, true)
		boot := tb.costMgr.Predict(cfg, cluster.Action{Kind: cluster.ActionStartHost, Host: host}, tb.rates)
		merged.Duration = boot.Duration
		merged.DeltaWatts = boot.DeltaWatts
		for name, d := range boot.DeltaRTSec {
			merged.DeltaRTSec[name] += d
		}
		for _, id := range rep.Displaced {
			restart(id, host, prev[id].CPUPct)
		}
	} else {
		for _, id := range rep.Displaced {
			target, free := "", 0.0
			for _, h := range cfg.ActiveHosts() {
				spec, ok := tb.cat.Host(h)
				if !ok {
					continue
				}
				f := spec.UsableCPUPct - cfg.AllocatedCPU(h)
				if f >= tb.cat.MinCPUPct && len(cfg.VMsOnHost(h)) < spec.MaxVMs && f > free {
					target, free = h, f
				}
			}
			if target == "" {
				rep.Stranded = append(rep.Stranded, id)
				continue
			}
			cpuPct := prev[id].CPUPct
			if cpuPct > free {
				cpuPct = free
			}
			restart(id, target, cpuPct)
		}
	}

	// The crash itself is instantaneous; the HA restart occupies the
	// timeline as one merged recovery phase whose configuration is already
	// in effect (restarting VMs run degraded, which the transient deltas
	// model).
	tb.cfg = cfg
	tb.cfgFinal = cfg
	rep.Recovery = merged.Duration
	if merged.Duration > 0 {
		tb.phases = append(tb.phases, phase{
			start:        tb.now,
			end:          tb.now + merged.Duration,
			pred:         merged,
			cfgAfter:     cfg,
			applyAtStart: true,
			applied:      true,
		})
	}
	tb.obsv.Counter("testbed_host_crashes_total").Inc()
	crashAttrs := []obs.Attr{
		{Key: "host", Value: host},
		{Key: "displaced", Value: len(rep.Displaced)},
		{Key: "stranded", Value: len(rep.Stranded)},
	}
	if tb.trace.Enabled() {
		crashAttrs = append(crashAttrs, tb.trace.Attr())
	}
	tb.obsv.Tracer().Event("host-crash", tb.now, tb.now+merged.Duration, crashAttrs...)
	return rep, nil
}

// windowNetWatts returns the time-weighted transient power the DES's
// utilization does not hold, over the phases overlapping the window: the
// data movers' NIC/chipset power (phaseRow.netHosts) and the power cycles'
// boot and shutdown draw (phaseRow.cycleWatts).
func (tb *Testbed) windowNetWatts(from, to time.Duration) float64 {
	window := (to - from).Seconds()
	if window <= 0 {
		return 0
	}
	var watts float64
	for _, ph := range tb.phases {
		row := &phaseTable[ph.action.Kind]
		w := migrationNetWatts * row.netHosts
		if row.cycleWatts {
			w += ph.pred.DeltaWatts
		}
		lo, hi := max(ph.start, from), min(ph.end, to)
		if w != 0 && hi > lo {
			watts += w * (hi - lo).Seconds() / window
		}
	}
	return watts
}
