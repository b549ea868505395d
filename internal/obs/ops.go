package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"github.com/mistralcloud/mistral/internal/obs/tsdb"
)

// OpsSchema versions the /ops JSON snapshot so consumers (mistral-explain,
// CI scrapes) can reject incompatible payloads.
const OpsSchema = "mistral.ops/v1"

// DefaultSlowWindows is how many slowest windows an OpsState retains.
const DefaultSlowWindows = 10

// SlowWindow is one entry in the top-N slowest-decide leaderboard.
// WallMS is explicitly wall-clock (observational); everything else is
// virtual-time or count data.
type SlowWindow struct {
	Window        int     `json:"window"`
	Trace         string  `json:"trace"`
	WallMS        float64 `json:"wall_ms"`
	SearchTimeSec float64 `json:"search_time_sec"`
	Degraded      bool    `json:"degraded,omitempty"`
}

// OpsSnapshot is the controller-health document served at /ops. Wall
// clock appears only in the explicitly-labeled *_ms / *_unix_ms fields;
// all other quantities are virtual-time or deterministic counts.
type OpsSnapshot struct {
	Schema      string  `json:"schema"`
	Strategy    string  `json:"strategy,omitempty"`
	IntervalSec float64 `json:"interval_sec,omitempty"`
	// Window/Trace identify the most recently completed window.
	Window           int             `json:"window"`
	Trace            string          `json:"trace,omitempty"`
	TimeSec          float64         `json:"t_sec"`
	Windows          int             `json:"windows"`
	CumUtility       float64         `json:"cum_utility_dollars"`
	DegradedWindows  int             `json:"degraded_windows"`
	DecideErrors     int             `json:"decide_errors"`
	Retries          int             `json:"retries"`
	HostCrashes      int             `json:"host_crashes"`
	LastDecideWallMS float64         `json:"last_decide_wall_ms"`
	SLO              json.RawMessage `json:"slo,omitempty"`
	SlowestWindows   []SlowWindow    `json:"slowest_windows,omitempty"`
	// History digests the telemetry store's retained series (per-series
	// min/max/last plus a sparkline vector of the newest values),
	// refreshed by the scenario loop after each window.
	History       []tsdb.Summary `json:"history,omitempty"`
	UpdatedUnixMS int64          `json:"updated_unix_ms,omitempty"`
}

// OpsWindow is one completed window's contribution to the ops state; its
// trace identity is TraceID(Window). The run totals come from the engine's
// result, which a checkpoint restores, so a restored run's /ops carries on
// counting where the checkpoint left off.
type OpsWindow struct {
	Window     int
	TimeSec    float64
	CumUtility float64
	Degraded   bool
	// WallMS is the decide call's wall-clock duration in milliseconds
	// (observational only).
	WallMS        float64
	SearchTimeSec float64
	// Run totals through this window.
	DegradedWindows, DecideErrors, Retries, HostCrashes int
	// Restored marks a window republished by a restore: no decide ran, so
	// the slowest-windows leaderboard gains no entry.
	Restored bool
}

// OpsState is the live controller-health surface behind /ops. The
// scenario loop updates it once per window; the HTTP handler and
// mistral-explain read snapshots concurrently. A nil *OpsState is a valid
// disabled state: every method returns immediately, so the default
// (observability off) path pays only a nil check.
type OpsState struct {
	mu   sync.Mutex
	snap OpsSnapshot
	topN int
}

// NewOpsState builds an ops state keeping the DefaultSlowWindows
// slowest windows.
func NewOpsState() *OpsState {
	return &OpsState{snap: OpsSnapshot{Schema: OpsSchema, Window: -1}, topN: DefaultSlowWindows}
}

// BeginRun resets per-run aggregates and records the strategy under
// observation. Sequential runs (experiment grids) each re-begin.
func (s *OpsState) BeginRun(strategy string, interval time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap = OpsSnapshot{
		Schema:      OpsSchema,
		Strategy:    strategy,
		IntervalSec: interval.Seconds(),
		Window:      -1,
	}
}

// RecordWindow folds one completed window into the state: windows run
// 0..Window, and the totals are the window's own.
func (s *OpsState) RecordWindow(w OpsWindow) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := &s.snap
	sn.Window = w.Window
	sn.Trace = TraceID(w.Window)
	sn.TimeSec = w.TimeSec
	sn.Windows = w.Window + 1
	sn.CumUtility = w.CumUtility
	sn.DegradedWindows = w.DegradedWindows
	sn.DecideErrors = w.DecideErrors
	sn.Retries = w.Retries
	sn.HostCrashes = w.HostCrashes
	sn.LastDecideWallMS = w.WallMS
	if w.Restored {
		return
	}
	sn.SlowestWindows = insertSlowWindow(sn.SlowestWindows, SlowWindow{
		Window:        w.Window,
		Trace:         sn.Trace,
		WallMS:        w.WallMS,
		SearchTimeSec: w.SearchTimeSec,
		Degraded:      w.Degraded,
	}, s.topN)
}

// insertSlowWindow places one window into the descending-WallMS top-N
// leaderboard: O(topN) per window instead of re-sorting the whole slice.
// Ties keep arrival order (the stable-sort semantics the leaderboard
// always had): a new entry goes after existing entries of equal WallMS.
func insertSlowWindow(top []SlowWindow, w SlowWindow, topN int) []SlowWindow {
	if topN <= 0 {
		return top
	}
	if len(top) >= topN && w.WallMS <= top[len(top)-1].WallMS {
		return top // below (or tied with) the cut line: stable order drops it
	}
	i := len(top)
	for i > 0 && top[i-1].WallMS < w.WallMS {
		i--
	}
	top = append(top, SlowWindow{})
	copy(top[i+1:], top[i:])
	top[i] = w
	if len(top) > topN {
		top = top[:topN]
	}
	return top
}

// SetSLO attaches the SLO engine's marshaled snapshot, refreshed by
// the scenario loop after each window.
func (s *OpsState) SetSLO(raw json.RawMessage) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap.SLO = raw
}

// SetHistory attaches the telemetry store's per-series digests,
// refreshed by the scenario loop after each window.
func (s *OpsState) SetHistory(sums []tsdb.Summary) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snap.History = sums
}

// Snapshot returns a copy of the current state, stamping the wall-clock
// update time (the one intentionally nondeterministic field, labeled as
// such).
func (s *OpsState) Snapshot() OpsSnapshot {
	if s == nil {
		return OpsSnapshot{Schema: OpsSchema, Window: -1}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sn := s.snap
	sn.SlowestWindows = append([]SlowWindow(nil), s.snap.SlowestWindows...)
	sn.SLO = append(json.RawMessage(nil), s.snap.SLO...)
	sn.History = append([]tsdb.Summary(nil), s.snap.History...)
	sn.UpdatedUnixMS = time.Now().UnixMilli()
	return sn
}

// Handler serves the snapshot as JSON — the /ops endpoint mounted next
// to /metrics. Works on a nil state (serves the empty document), so the
// route can always be mounted.
func (s *OpsState) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Snapshot())
	})
}

// OpsState returns the observer's ops surface, or nil (a valid
// disabled state).
func (o *Observer) OpsState() *OpsState {
	if o == nil {
		return nil
	}
	return o.Ops
}
