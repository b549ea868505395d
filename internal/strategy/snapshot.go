package strategy

import (
	"encoding/json"
	"fmt"
	"maps"
	"time"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/predict"
)

// Every strategy implements scenario.Snapshotter: SnapshotState serializes
// its mutable decision state — controller band/estimator state,
// last-seen rates, per-level stats; the evaluator's memo is per-window and
// never persisted, and the controllers' utility history is refolded from
// the window logs by the engine — and RestoreState rebuilds it in a
// freshly constructed strategy so a checkpointed run resumes with zero
// decision drift.
// Construction inputs (catalog, search options, host groups) are
// not serialized; state restores into a strategy built from the same
// configuration.

// mistralState is the Mistral hierarchy's serialized form.
type mistralState struct {
	L3    *core.ControllerState  `json:"l3,omitempty"`
	L2    core.ControllerState   `json:"l2"`
	L1    []core.ControllerState `json:"l1"`
	Stats [3]LevelStats          `json:"stats"`
}

// SnapshotState implements scenario.Snapshotter.
func (m *Mistral) SnapshotState() (json.RawMessage, error) {
	m.statsMu.Lock()
	stats := m.stats
	m.statsMu.Unlock()
	s := mistralState{
		L2:    m.l2.Persist(),
		Stats: stats,
	}
	if m.l3 != nil {
		l3 := m.l3.Persist()
		s.L3 = &l3
	}
	for _, l1 := range m.l1 {
		s.L1 = append(s.L1, l1.Persist())
	}
	return json.Marshal(s)
}

// RestoreState implements scenario.Snapshotter.
func (m *Mistral) RestoreState(raw json.RawMessage) error {
	var s mistralState
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("strategy: mistral state: %w", err)
	}
	if (s.L3 != nil) != (m.l3 != nil) {
		return fmt.Errorf("strategy: mistral state has 3rd level %v, hierarchy %v", s.L3 != nil, m.l3 != nil)
	}
	if len(s.L1) != len(m.l1) {
		return fmt.Errorf("strategy: mistral state has %d 1st-level controllers, hierarchy has %d", len(s.L1), len(m.l1))
	}
	if s.L3 != nil {
		m.l3.Restore(*s.L3)
	}
	m.l2.Restore(s.L2)
	for i, cs := range s.L1 {
		m.l1[i].Restore(cs)
	}
	m.statsMu.Lock()
	m.stats = s.Stats
	m.statsMu.Unlock()
	return nil
}

// perfPwrState is the Perf-Pwr baseline's serialized form.
type perfPwrState struct {
	Last map[string]float64 `json:"last,omitempty"`
}

// SnapshotState implements scenario.Snapshotter.
func (p *PerfPwr) SnapshotState() (json.RawMessage, error) {
	return json.Marshal(perfPwrState{Last: maps.Clone(p.gate.last)})
}

// RestoreState implements scenario.Snapshotter.
func (p *PerfPwr) RestoreState(raw json.RawMessage) error {
	var s perfPwrState
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("strategy: perf-pwr state: %w", err)
	}
	p.gate.last = maps.Clone(s.Last)
	return nil
}

// perfCostState is the Perf-Cost baseline's serialized form.
type perfCostState struct {
	Ctrl core.ControllerState `json:"ctrl"`
}

// SnapshotState implements scenario.Snapshotter.
func (p *PerfCost) SnapshotState() (json.RawMessage, error) {
	return json.Marshal(perfCostState{Ctrl: p.ctrl.Persist()})
}

// RestoreState implements scenario.Snapshotter.
func (p *PerfCost) RestoreState(raw json.RawMessage) error {
	var s perfCostState
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("strategy: perf-cost state: %w", err)
	}
	p.ctrl.Restore(s.Ctrl)
	return nil
}

// pwrCostState is the Pwr-Cost baseline's serialized form.
type pwrCostState struct {
	Est         predict.PersistState `json:"est"`
	Last        map[string]float64   `json:"last,omitempty"`
	BandStartNS int64                `json:"band_start_ns"`
	Started     bool                 `json:"started"`
}

// SnapshotState implements scenario.Snapshotter.
func (p *PwrCost) SnapshotState() (json.RawMessage, error) {
	return json.Marshal(pwrCostState{
		Est:         p.est.Persist(),
		Last:        maps.Clone(p.gate.last),
		BandStartNS: int64(p.bandStart),
		Started:     p.started,
	})
}

// RestoreState implements scenario.Snapshotter.
func (p *PwrCost) RestoreState(raw json.RawMessage) error {
	var s pwrCostState
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("strategy: pwr-cost state: %w", err)
	}
	p.est.Restore(s.Est)
	p.bandStart = time.Duration(s.BandStartNS)
	p.started = s.Started
	p.gate.last = maps.Clone(s.Last)
	return nil
}
