package scenario

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/guard"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// SnapshotSchema identifies the checkpoint format. Bump it when a field
// changes meaning or an older build would misread a file — a version bump
// turns silent state corruption into a clean "unsupported schema" error.
//
// v4 carries only state the code cannot rebuild: the testbed's cost table is
// a construction input (the recipe's lab), and the decider's utility history
// is refolded from Result.Windows. An older build would resume a v4 file on
// an empty cost table, hence the bump. Restore also reads v3 files and
// ignores their "costs" and controller "history" keys. v3 dropped the
// evaluator's memo entries; v1 and v2 files are refused. Later v3 files also
// dropped the evaluator's un-flushed cache counters, the registry's
// cumulative cache counters and the SLO engine's cache baseline, with the
// eval-cache-hit objective they fed; older v3 files still carry those keys,
// and Restore ignores them. Files written before the history store became a
// view of Result.Windows also carry a "history" key, which Restore ignores:
// it reads the history from the window logs, whose SearchCost and Expansions
// such files lack, so those two series read 0 over their windows. Files
// written before the SLO engine was refolded from the window logs carry an
// "slo" key, which Restore ignores too; their windows lack GuardChecked, so
// guard-reject refolds as unmeasured over them. Windows logged before the
// DecideError and Aborted flags read no decide errors on /ops, and a file
// holding an aborted one is refused.
const SnapshotSchema = "mistral.checkpoint/v4"

// legacySchema is the previous checkpoint format, which Restore still reads.
const legacySchema = "mistral.checkpoint/v3"

// Snapshotter is the optional Decider extension that makes a strategy
// checkpointable: SnapshotState serializes every piece of mutable decision
// state (estimator histories, utility bands, per-level invocation stats),
// and RestoreState rebuilds it in a freshly constructed strategy. The
// encoding is the strategy's own business — the engine stores it opaquely. A strategy that doesn't implement it can
// still be engine-driven, just not checkpointed.
type Snapshotter interface {
	SnapshotState() (json.RawMessage, error)
	RestoreState(json.RawMessage) error
}

// RetryState is a retryable failed action awaiting re-execution: the
// engine's retry queue holds these, and a checkpoint carries them as they
// are. Attempt counts executions so far; AtNS is the earliest re-execution
// time.
type RetryState struct {
	Action  cluster.Action `json:"action"`
	Attempt int            `json:"attempt"`
	AtNS    int64          `json:"at_ns"`
}

// Snapshot is a complete engine checkpoint: everything a fresh process
// needs to resume the replay mid-trace with zero decision drift. All
// durations are int64 nanoseconds (never float seconds — exactness is the
// whole point). Construction inputs (catalog, app specs, traces, utility
// params, fault rates) are NOT included: a checkpoint is restored into an
// engine rebuilt from the same configuration, and Restore cross-checks the
// parts it can see (schema, strategy name, fault-plane presence).
type Snapshot struct {
	Schema   string `json:"schema"`
	Strategy string `json:"strategy"`

	// Replay cursor.
	WindowIndex   int          `json:"window_index"`
	TimeNS        int64        `json:"time_ns"`
	TotalSearchNS int64        `json:"total_search_ns"`
	Retries       []RetryState `json:"retries,omitempty"`

	// Accumulated outputs.
	Result *Result `json:"result"`

	// Subsystem state.
	Testbed *testbed.State  `json:"testbed"`
	Fault   *fault.State    `json:"fault,omitempty"`
	Guard   *guard.State    `json:"guard,omitempty"`
	Decider json.RawMessage `json:"decider,omitempty"`
}

// detached copies the result so that neither side sees the other's later
// appends and counts. Completed WindowLogs are shared: their maps are never
// written again.
func (r *Result) detached() *Result {
	c := *r
	c.Windows = slices.Clone(r.Windows)
	c.ViolationsByApp = maps.Clone(r.ViolationsByApp)
	return &c
}

// Snapshot captures the engine's complete state between steps. The engine
// keeps running — snapshotting is non-destructive — so a daemon can
// checkpoint periodically while serving. Call it only between Step calls.
func (e *Engine) Snapshot() (*Snapshot, error) {
	tbState, err := e.tb.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	faultState, err := e.cfg.Fault.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("scenario: fault snapshot: %w", err)
	}
	s := &Snapshot{
		Schema:        SnapshotSchema,
		Strategy:      e.res.Strategy,
		WindowIndex:   e.WindowIndex(),
		TimeNS:        int64(e.t),
		TotalSearchNS: int64(e.totalSearch),
		Retries:       slices.Clone(e.retries),
		Result:        e.res.detached(),
		Testbed:       tbState,
		Fault:         faultState,
	}
	if sn, ok := e.d.(Snapshotter); ok {
		s.Decider, err = sn.SnapshotState()
		if err != nil {
			return nil, fmt.Errorf("scenario: decider snapshot: %w", err)
		}
	}
	s.Guard = e.cfg.Guard.Snapshot()
	return s, nil
}

// Restore rewinds a freshly built engine to a checkpoint. The engine must
// have been constructed with the same inputs (testbed catalog and specs,
// strategy configuration, traces, utility params, fault options) as the
// one that produced the snapshot; Restore verifies what it can — schema
// version, strategy name, fault-plane, guard and decider-state presence —
// before it changes anything, and trusts the caller for the rest. After
// Restore, Step continues the replay as if the process had never stopped.
func (e *Engine) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("scenario: nil snapshot")
	}
	if s.Schema != SnapshotSchema && s.Schema != legacySchema {
		return fmt.Errorf("scenario: unsupported checkpoint schema %q (want %q)", s.Schema, SnapshotSchema)
	}
	if s.Strategy != e.d.Name() {
		return fmt.Errorf("scenario: checkpoint is for strategy %q, engine runs %q", s.Strategy, e.d.Name())
	}
	if (s.Fault != nil) != e.cfg.Fault.Enabled() {
		return fmt.Errorf("scenario: checkpoint fault-injection state does not match engine configuration")
	}
	if (s.Guard != nil) != e.cfg.Guard.Enabled() {
		return fmt.Errorf("scenario: checkpoint guard state does not match engine configuration")
	}
	if s.Result == nil {
		return fmt.Errorf("scenario: checkpoint has no result")
	}
	// Every view reads completed window k for k below the window index.
	n := 0
	for i := range s.Result.Windows {
		n += b2i(!s.Result.Windows[i].Aborted)
	}
	if n != s.WindowIndex {
		return fmt.Errorf("scenario: checkpoint at window %d holds %d completed windows", s.WindowIndex, n)
	}
	// A checkpointable strategy resumed without its state would run on
	// fresh bands and estimators and drift silently: refuse instead.
	sn, checkpointable := e.d.(Snapshotter)
	switch {
	case checkpointable && len(s.Decider) == 0:
		return fmt.Errorf("scenario: checkpoint carries no state for checkpointable strategy %q", e.d.Name())
	case !checkpointable && len(s.Decider) > 0:
		return fmt.Errorf("scenario: checkpoint carries decider state but strategy %q cannot restore it", e.d.Name())
	}
	if err := e.tb.Restore(s.Testbed); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := e.cfg.Fault.Restore(s.Fault); err != nil {
		return fmt.Errorf("scenario: fault restore: %w", err)
	}
	if checkpointable {
		if err := sn.RestoreState(s.Decider); err != nil {
			return fmt.Errorf("scenario: decider restore: %w", err)
		}
	}
	e.res = s.Result.detached()
	if e.res.ViolationsByApp == nil {
		e.res.ViolationsByApp = make(map[string]int)
	}
	e.t = time.Duration(s.TimeNS)
	e.totalSearch = time.Duration(s.TotalSearchNS)
	e.retries = slices.Clone(s.Retries)
	// The guard is the last step that can fail; everything from here on
	// publishes into planes the observer shares, so nothing before it may.
	if s.Guard != nil {
		if err := e.cfg.Guard.Restore(s.Guard); err != nil {
			return fmt.Errorf("scenario: guard restore: %w", err)
		}
	}
	for i := range e.res.Windows {
		if !e.res.Windows[i].Aborted {
			e.feedback(&e.res.Windows[i])
		}
	}
	e.views = newViews(e.o, e.d.Name(), e.cfg.Interval)
	e.views.refold(e.res.Windows)
	// Republish the headline gauges so a freshly restored daemon's
	// /metrics reflects the checkpoint instead of zero.
	e.gCumUtil.Set(e.res.CumUtility)
	return nil
}
