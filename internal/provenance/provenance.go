// Package provenance is the decision flight recorder: a per-window record
// of *why* the controller chose an action sequence, capturing the Eq. 3
// utility decomposition of the chosen plan and of the rejected frontier
// heads, a bounded digest of the A* search tree (expanded vertices with
// their f/g/h values, pruning and termination events with their reasons),
// and the prediction context (workload band, measured vs. predicted
// stability interval, ARMA state).
//
// The package follows the same zero-dependency, nil-safe discipline as
// internal/obs: a nil *Recorder is a valid disabled recorder whose methods
// return immediately, so instrumented paths pay only a nil check when
// provenance is off — the default — and replays are byte-identical to an
// uninstrumented build. Records serialize as deterministic JSONL (struct
// fields in declaration order, map keys sorted), so a fixed-seed replay
// produces byte-identical record streams.
package provenance

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"
)

// SchemaV2 identifies the record format; every Record carries it so a
// stream is self-describing and mistral-explain can reject foreign files.
// v2 records carry the window's log as the engine booked it (Record.Log);
// v1 records repeated some of its fields under names of their own, and are
// refused.
const SchemaV2 = "mistral.provenance/v2"

// checkSchema accepts SchemaV2 only, and asks for a v1 stream's re-recording.
func checkSchema(schema string) error {
	if schema == "mistral.provenance/v1" {
		return fmt.Errorf("schema %q is no longer read (want %q): re-record the run", schema, SchemaV2)
	}
	if schema != SchemaV2 {
		return fmt.Errorf("schema %q, want %q", schema, SchemaV2)
	}
	return nil
}

// Tolerance is the maximum absolute error allowed between a ledger's
// recomputed sums and the search's reported utility (the --check bound).
const Tolerance = 1e-9

// Termination reasons for a search digest, mirroring every return path of
// the A* search.
const (
	// TermNoChange: the ideal configuration equals the current one; no
	// search ran.
	TermNoChange = "no-change"
	// TermGoal: a finished vertex was popped first — the plan is optimal
	// under the shaped heuristic.
	TermGoal = "goal-popped"
	// TermEpsilon: the frontier's optimism decayed to within the epsilon
	// margin of the best complete plan.
	TermEpsilon = "epsilon"
	// TermDeadline: the Self-Aware decision deadline (2x the delay budget)
	// committed to the best complete plan.
	TermDeadline = "self-aware-deadline"
	// TermMaxExpansions: the expansion cap was hit (best-so-far returned).
	TermMaxExpansions = "max-expansions"
	// TermExhausted: the open set drained without a finished vertex.
	TermExhausted = "frontier-exhausted"
)

// Event kinds and width-prune reasons.
const (
	// EventWidthPrune: Self-Aware width restriction dropped children.
	EventWidthPrune = "width-prune"
	// ReasonUtilityBudget: the search's cost (power + forgone utility)
	// reached the expected utility UH of the coming window.
	ReasonUtilityBudget = "expected-utility-budget"
	// ReasonDelayThreshold: the search ran past its delay threshold T-bar.
	ReasonDelayThreshold = "delay-threshold"
)

// terminations is the closed set Validate accepts.
var terminations = map[string]bool{
	TermNoChange:      true,
	TermGoal:          true,
	TermEpsilon:       true,
	TermDeadline:      true,
	TermMaxExpansions: true,
	TermExhausted:     true,
}

// Record is one monitoring window's provenance: the window's log plus what
// only provenance knows, why the strategy decided what it did. One Record is
// written per window, busy and aborted ones included.
type Record struct {
	Schema   string `json:"schema"`
	Window   int    `json:"window"` // 0-based window index within one replay
	Strategy string `json:"strategy"`
	// Busy marks a window skipped because a previous plan was executing.
	Busy bool `json:"busy,omitempty"`
	// Log is the window's log, encoded as a checkpoint encodes it.
	Log WindowLog `json:"log"`
	// Decisions carries one entry per controller invocation this window
	// (the Mistral hierarchy can invoke several 1st-level controllers in
	// one control opportunity, in controller order).
	Decisions []*DecisionProv `json:"decisions,omitempty"`
	// Guard carries the admission verdict for the window's proposed plan,
	// when an admission guard is attached.
	Guard *GuardProv `json:"guard,omitempty"`
	// Steps carries the window's per-step execution outcomes (main plan and
	// retries, in execution order), when the run opts into step provenance
	// (scenario.RunConfig.StepProvenance).
	Steps []StepProv `json:"steps,omitempty"`
}

// WindowLog is one monitoring window's record: the entry of a run's
// Result.Windows, a checkpoint's copy of it, and a provenance Record's Log.
// Every view of a run — history, SLO, /ops — is derived from these logs.
type WindowLog struct {
	// Time is the window end, offset from scenario start.
	Time time.Duration
	// Rates are the offered request rates during the window.
	Rates map[string]float64
	// RTSec are measured mean response times per application.
	RTSec map[string]float64
	// Watts is the measured mean system power.
	Watts float64
	// Utility is the window's accrued utility in dollars, including the
	// decision cost.
	Utility float64
	// CumUtility is the running total.
	CumUtility float64
	// Actions counts adaptation actions started this window (applied or
	// failed; retries count again).
	Actions int
	// Invoked reports whether the strategy's decision procedure ran.
	Invoked bool
	// SearchTime is the decision procedure's (simulated) duration.
	SearchTime time.Duration
	// SearchCost is the decision's Eq. 3 charge in dollars, already
	// deducted from Utility; Expansions counts its search vertices.
	SearchCost float64 `json:",omitempty"`
	Expansions int     `json:",omitempty"`
	// ActiveHosts is the number of powered-on hosts at the window's end.
	ActiveHosts int
	// Degraded marks a window that absorbed a failure instead of aborting:
	// a decide/execute error, a strategy fallback, a failed or skipped
	// action, a host crash, or a dropped sensor window. DegradedReason
	// names every cause that struck, semicolon-joined in the order they
	// landed.
	Degraded       bool   `json:",omitempty"`
	DegradedReason string `json:",omitempty"`
	// FailedActions counts actions an injected fault aborted this window.
	FailedActions int `json:",omitempty"`
	// Retried counts re-executions of previously failed actions.
	Retried int `json:",omitempty"`
	// HostCrashes counts hosts that crashed this window.
	HostCrashes int `json:",omitempty"`
	// SensorDropped marks the window's measurements as a stale replay.
	SensorDropped bool `json:",omitempty"`
	// RolledBack counts compensating steps executed this window after a
	// non-retryable failure aborted a plan under
	// testbed.RollbackOnFailure.
	RolledBack int `json:",omitempty"`
	// Compensated marks a window whose plan aborted and was rolled back;
	// FPRestored then reports whether the testbed's scheduled final
	// configuration fingerprint returned to its pre-plan value (the
	// transactional guarantee — always true unless the rollback engine
	// itself is broken).
	Compensated bool `json:",omitempty"`
	FPRestored  bool `json:",omitempty"`
	// DecideError marks a decision procedure that returned an error or
	// panicked.
	DecideError bool `json:",omitempty"`
	// Aborted marks a window whose measurement failed: booked, never
	// completed. The engine's clock does not pass it, so the next window,
	// a retry, carries the same index and end time.
	Aborted bool `json:",omitempty"`
	// GuardChecked marks a window whose proposed plan went through the
	// admission guard; GuardRejected marks one the guard refused, and
	// GuardRule names the invariant that fired.
	GuardChecked  bool   `json:",omitempty"`
	GuardRejected bool   `json:",omitempty"`
	GuardRule     string `json:",omitempty"`
}

// GuardProv is the admission guard's verdict on the window's plan.
type GuardProv struct {
	Allowed bool `json:"allowed"`
	// Rule names the invariant that rejected the plan ("" when allowed);
	// Reason is its human-readable explanation.
	Rule   string `json:"rule,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Breaker is the circuit breaker's state at decision time
	// ("closed", "open", "half-open").
	Breaker string `json:"breaker"`
}

// StepProv is one executed (or skipped) plan step's realized outcome — the
// flight-recorder view of testbed.StepReport.
type StepProv struct {
	Action string `json:"action"`
	// Status is the step outcome: "applied", "failed", "skipped",
	// "rolled-back".
	Status string `json:"status"`
	// PlannedSec is the cost-table duration; RealizedSec the time actually
	// consumed on the timeline.
	PlannedSec  float64 `json:"planned_sec,omitempty"`
	RealizedSec float64 `json:"realized_sec,omitempty"`
	// Retry marks a re-execution of a previously failed action (with its
	// attempt number); Retryable marks a failure the retry queue may yet
	// complete.
	Retry     int    `json:"retry,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
	Err       string `json:"err,omitempty"`
}

// DecisionProv is one controller invocation's provenance.
type DecisionProv struct {
	Controller string `json:"controller"`
	// Degraded marks a controller that fell back to no adaptation;
	// DegradedReason names the failing stage and error.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Predict is the prediction context the control window came from.
	Predict *PredictProv `json:"predict,omitempty"`
	// Search is the bounded search-tree digest with the utility ledgers.
	Search *SearchDigest `json:"search,omitempty"`
}

// PredictProv is the prediction context of one decision: the workload band
// the controller tracks, the just-measured stability interval against the
// ARMA prediction, the control window actually used (after floors), and
// the estimator's internal state.
type PredictProv struct {
	// BandWidth is the controller's workload band width in req/s (0 means
	// invoke on every monitoring interval).
	BandWidth float64 `json:"band_width"`
	// MeasuredSec is the just-completed stability interval; PredictedSec
	// the raw ARMA prediction for the next one; CWSec the control window
	// after the MinCW floor.
	MeasuredSec  float64 `json:"measured_interval_sec"`
	PredictedSec float64 `json:"predicted_interval_sec"`
	CWSec        float64 `json:"cw_sec"`
	// Floor names the floor that raised the prediction to CWSec: "min-cw",
	// or empty when the raw prediction was used.
	Floor string `json:"floor,omitempty"`
	// Beta is the ARMA mixing weight used for the current prediction;
	// ARMAMeasured / ARMAErrors are the estimator's bounded histories
	// (newest last, seconds).
	Beta         float64   `json:"arma_beta"`
	ARMAMeasured []float64 `json:"arma_measured,omitempty"`
	ARMAErrors   []float64 `json:"arma_errors,omitempty"`
}

// SearchDigest is the bounded flight-recorder view of one A* search: the
// chosen plan's utility ledger, the top rejected frontier alternatives,
// every expanded vertex (up to a cap) with its f/g/h values, and every
// pruning/termination event with its reason.
type SearchDigest struct {
	// Termination names the return path that ended the search (one of the
	// Term* constants).
	Termination string `json:"termination"`
	// Utility is Eq. 3 for the chosen plan over the control window
	// (decision self-cost excluded, as in SearchResult.Utility).
	Utility           float64 `json:"utility"`
	SearchTimeSec     float64 `json:"search_time_sec"`
	SearchCostDollars float64 `json:"search_cost_dollars"`
	Expanded          int     `json:"expanded"`
	Generated         int     `json:"generated"`
	PrunedChildren    int     `json:"pruned_children,omitempty"`
	PeakFrontier      int     `json:"peak_frontier"`
	RootDistance      float64 `json:"root_distance"`
	Truncated         bool    `json:"truncated,omitempty"`
	// Chosen is the Eq. 3 decomposition of the winning plan; its sums must
	// match Utility within Tolerance (enforced by Validate).
	Chosen PlanLedger `json:"chosen"`
	// Rejected holds the best frontier alternatives still open when the
	// search committed, best first (bounded; the head is the plan the
	// search would have explored next).
	Rejected []Alternative `json:"rejected,omitempty"`
	// Vertices digests the expansion order (bounded; DroppedVertices
	// counts the tail that fell past the cap).
	Vertices        []VertexProv `json:"vertices,omitempty"`
	DroppedVertices int          `json:"dropped_vertices,omitempty"`
	// Events are pruning/deadline/truncation incidents in expansion order
	// (bounded; DroppedEvents counts past-cap incidents).
	Events        []EventProv `json:"events,omitempty"`
	DroppedEvents int         `json:"dropped_events,omitempty"`
}

// PlanLedger is the Eq. 3 utility decomposition of one action sequence:
// per-action transient costs, then the steady-state accrual of the final
// configuration over the rest of the control window.
type PlanLedger struct {
	Actions []ActionProv `json:"actions,omitempty"`
	// TransientDollars is the sum of the per-action costs (utility accrued
	// while executing, usually negative); PlanDurationSec the total
	// execution time.
	TransientDollars float64 `json:"transient_dollars"`
	PlanDurationSec  float64 `json:"plan_duration_sec"`
	// SteadyPerfRate / SteadyPwrRate are the final configuration's Eq. 1
	// and Eq. 2 accrual rates ($/s); SteadyDollars their sum times
	// SteadySec, the window time left after the plan.
	SteadyPerfRate float64 `json:"steady_perf_rate"`
	SteadyPwrRate  float64 `json:"steady_pwr_rate"`
	SteadySec      float64 `json:"steady_sec"`
	SteadyDollars  float64 `json:"steady_dollars"`
	// Utility = TransientDollars + SteadyDollars.
	Utility float64 `json:"utility"`
	// Error records a ledger replay failure (the plan could not be
	// re-evaluated); consistency checks skip errored ledgers.
	Error string `json:"error,omitempty"`
}

// ActionProv is one action's transient evaluation.
type ActionProv struct {
	Action            string  `json:"action"`
	DurationSec       float64 `json:"duration_sec"`
	RateDollarsPerSec float64 `json:"rate_dollars_per_sec"`
	// CostDollars = DurationSec * RateDollarsPerSec.
	CostDollars float64 `json:"cost_dollars"`
}

// Alternative is a rejected frontier vertex: the plan prefix the search
// left unexplored when it committed, with its A* bookkeeping (F is the
// shaped priority, G the utility accrued by the prefix, H = F − G the
// optimistic remainder) and the Eq. 3 ledger of stopping at the prefix.
type Alternative struct {
	Depth    int     `json:"depth"`
	F        float64 `json:"f"`
	G        float64 `json:"g"`
	H        float64 `json:"h"`
	Distance float64 `json:"distance"` // weighted distance to the ideal config
	// Complete marks a finished candidate (a full plan the search could
	// have returned) rather than an intermediate.
	Complete bool       `json:"complete,omitempty"`
	Ledger   PlanLedger `json:"ledger"`
}

// VertexProv is one expanded vertex in pop order.
type VertexProv struct {
	Seq      int     `json:"seq"` // 1-based expansion index
	Depth    int     `json:"depth"`
	F        float64 `json:"f"`
	G        float64 `json:"g"`
	H        float64 `json:"h"`
	Distance float64 `json:"distance"`
	Frontier int     `json:"frontier"` // open-set size after the pop
}

// EventProv is one pruning/termination incident.
type EventProv struct {
	Expansion  int     `json:"expansion"` // expansion index when it fired
	Kind       string  `json:"kind"`
	Reason     string  `json:"reason,omitempty"`
	Dropped    int     `json:"dropped,omitempty"` // children discarded
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`
}

// Recorder serializes records as JSONL. All methods are safe for
// concurrent use; a nil *Recorder is a valid disabled recorder. The first
// write error is sticky: later appends return it without writing.
type Recorder struct {
	mu  sync.Mutex
	w   io.Writer
	n   int
	err error
}

// NewRecorder builds a recorder over w.
func NewRecorder(w io.Writer) *Recorder { return &Recorder{w: w} }

// Enabled reports whether the recorder captures anything; instrumented
// paths gate their record construction on it.
func (r *Recorder) Enabled() bool { return r != nil }

// Append serializes one record as a JSON line. The record's Schema is
// stamped if empty. A nil recorder or record is a no-op.
func (r *Recorder) Append(rec *Record) error {
	if r == nil || rec == nil {
		return nil
	}
	if rec.Schema == "" {
		rec.Schema = SchemaV2
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("provenance: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	if _, err := r.w.Write(append(b, '\n')); err != nil {
		r.err = fmt.Errorf("provenance: %w", err)
		return r.err
	}
	r.n++
	return nil
}

// Count returns how many records were appended.
func (r *Recorder) Count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// ReadAll decodes a JSONL record stream, skipping blank lines and refusing
// any record not of SchemaV2. Errors name the offending line.
func ReadAll(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("provenance: line %d: %w", line, err)
		}
		if err := checkSchema(rec.Schema); err != nil {
			return nil, fmt.Errorf("provenance: line %d: %w", line, err)
		}
		if slices.Contains(rec.Decisions, nil) {
			return nil, fmt.Errorf("provenance: line %d: null decision", line)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	return out, nil
}

// close reports whether two ledger sums agree within Tolerance.
func close2(a, b float64) bool { return math.Abs(a-b) <= Tolerance }

// validateLedger checks a ledger's internal arithmetic. want is the
// externally reported utility the ledger must reproduce; pass NaN to skip
// that comparison (alternatives have no external figure for their prefix).
func validateLedger(where string, l *PlanLedger, want float64) error {
	if l.Error != "" {
		return nil // replay failed; nothing to cross-check
	}
	var sum, dur float64
	for i, a := range l.Actions {
		if !close2(a.DurationSec*a.RateDollarsPerSec, a.CostDollars) {
			return fmt.Errorf("%s: action %d (%s): cost %v != duration %v * rate %v",
				where, i, a.Action, a.CostDollars, a.DurationSec, a.RateDollarsPerSec)
		}
		sum += a.CostDollars
		dur += a.DurationSec
	}
	if !close2(sum, l.TransientDollars) {
		return fmt.Errorf("%s: action costs sum to %v, ledger says transient %v", where, sum, l.TransientDollars)
	}
	if !close2(dur, l.PlanDurationSec) {
		return fmt.Errorf("%s: action durations sum to %vs, ledger says %vs", where, dur, l.PlanDurationSec)
	}
	if !close2((l.SteadyPerfRate+l.SteadyPwrRate)*l.SteadySec, l.SteadyDollars) {
		return fmt.Errorf("%s: steady dollars %v != (%v+%v)*%vs", where, l.SteadyDollars, l.SteadyPerfRate, l.SteadyPwrRate, l.SteadySec)
	}
	if !close2(l.TransientDollars+l.SteadyDollars, l.Utility) {
		return fmt.Errorf("%s: ledger utility %v != transient %v + steady %v", where, l.Utility, l.TransientDollars, l.SteadyDollars)
	}
	if !math.IsNaN(want) && !close2(l.Utility, want) {
		return fmt.Errorf("%s: ledger utility %v != reported utility %v (|diff| %g > %g)",
			where, l.Utility, want, math.Abs(l.Utility-want), Tolerance)
	}
	return nil
}

// Validate checks one record's schema and internal consistency: the chosen
// ledger's sums must reproduce the search's reported utility within
// Tolerance, every alternative's ledger must be internally consistent, and
// termination/event fields must come from the known vocabulary.
func (r *Record) Validate() error {
	if err := checkSchema(r.Schema); err != nil {
		return fmt.Errorf("window %d: %w", r.Window, err)
	}
	if r.Window < 0 {
		return fmt.Errorf("negative window index %d", r.Window)
	}
	for i, d := range r.Decisions {
		where := fmt.Sprintf("window %d decision %d (%s)", r.Window, i, d.Controller)
		if d.Degraded {
			if d.DegradedReason == "" {
				return fmt.Errorf("%s: degraded without a reason", where)
			}
			continue // degraded decisions carry no search digest to check
		}
		sd := d.Search
		if sd == nil {
			continue
		}
		if !terminations[sd.Termination] {
			return fmt.Errorf("%s: unknown termination %q", where, sd.Termination)
		}
		if err := validateLedger(where+" chosen", &sd.Chosen, sd.Utility); err != nil {
			return err
		}
		for j := range sd.Rejected {
			alt := &sd.Rejected[j]
			if !close2(alt.F-alt.G, alt.H) {
				return fmt.Errorf("%s rejected %d: f %v - g %v != h %v", where, j, alt.F, alt.G, alt.H)
			}
			if err := validateLedger(fmt.Sprintf("%s rejected %d", where, j), &alt.Ledger, math.NaN()); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckStream validates a whole record stream: per-record Validate plus
// window sequencing (indices increase by one within a replay segment, repeat
// after an aborted window, which a daemon retries, and may reset to zero
// when a new replay starts, as mistral-exp's multi-run experiments do).
func CheckStream(recs []Record) error {
	for i := range recs {
		r := &recs[i]
		if err := r.Validate(); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		if i > 0 {
			prev := &recs[i-1]
			want := prev.Window + 1
			if prev.Log.Aborted {
				want = prev.Window
			}
			if r.Window != want && r.Window != 0 {
				return fmt.Errorf("record %d: window %d does not follow %d (want %d or 0)",
					i, r.Window, prev.Window, want)
			}
		}
	}
	return nil
}
