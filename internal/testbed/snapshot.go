package testbed

import (
	"fmt"
	"maps"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/cost"
)

// PhaseState is one scheduled action execution in serializable form.
type PhaseState struct {
	StartNS      int64               `json:"start_ns"`
	EndNS        int64               `json:"end_ns"`
	Action       cluster.Action      `json:"action"`
	Pred         cost.Prediction     `json:"pred"`
	CfgAfter     cluster.ConfigState `json:"cfg_after"`
	ApplyAtStart bool                `json:"apply_at_start,omitempty"`
	Applied      bool                `json:"applied,omitempty"`
	Failed       bool                `json:"failed,omitempty"`
	Rollback     bool                `json:"rollback,omitempty"`
}

// State is the testbed's complete mutable state in serializable form: the
// virtual clock, the in-effect and final configurations, the current
// workload, the in-flight phases, the measurement-noise stream position and
// the sensor-drop replay cache. Construction inputs (catalog, app specs, cost
// table, options) are not included — state is restored into a testbed
// freshly built with the same inputs. Only ModeAnalytic is
// supported: the request-level discrete-event simulator's heap of pending
// events is not serializable.
type State struct {
	NowNS    int64               `json:"now_ns"`
	Cfg      cluster.ConfigState `json:"cfg"`
	CfgFinal cluster.ConfigState `json:"cfg_final"`
	Rates    map[string]float64  `json:"rates,omitempty"`
	Phases   []PhaseState        `json:"phases,omitempty"`
	Noise    []byte              `json:"noise"`
	LastMeas *Window             `json:"last_meas,omitempty"`
}

// Snapshot captures the testbed's mutable state. Only supported in
// analytic mode.
func (tb *Testbed) Snapshot() (*State, error) {
	if tb.opts.Mode != ModeAnalytic {
		return nil, fmt.Errorf("testbed: snapshot is only supported in analytic mode")
	}
	noise, err := tb.noise.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	s := &State{
		NowNS:    int64(tb.now),
		Cfg:      tb.cfg.Snapshot(),
		CfgFinal: tb.cfgFinal.Snapshot(),
		Noise:    noise,
	}
	if len(tb.rates) > 0 {
		s.Rates = make(map[string]float64, len(tb.rates))
		for k, v := range tb.rates {
			s.Rates[k] = v
		}
	}
	for _, ph := range tb.phases {
		ps := PhaseState{
			StartNS:      int64(ph.start),
			EndNS:        int64(ph.end),
			Action:       ph.action,
			Pred:         clonePrediction(ph.pred),
			CfgAfter:     ph.cfgAfter.Snapshot(),
			ApplyAtStart: ph.applyAtStart,
			Applied:      ph.applied,
			Failed:       ph.failed,
			Rollback:     ph.rollback,
		}
		s.Phases = append(s.Phases, ps)
	}
	if tb.lastMeas != nil {
		lm := cloneWindow(*tb.lastMeas)
		s.LastMeas = &lm
	}
	return s, nil
}

// Restore overwrites the testbed's mutable state with a captured one. The
// testbed must have been built with the same construction inputs (catalog,
// app specs, options) as the one that produced the snapshot.
func (tb *Testbed) Restore(s *State) error {
	if tb.opts.Mode != ModeAnalytic {
		return fmt.Errorf("testbed: restore is only supported in analytic mode")
	}
	if s == nil {
		return fmt.Errorf("testbed: nil snapshot")
	}
	if err := tb.noise.Restore(s.Noise); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	tb.now = time.Duration(s.NowNS)
	tb.cfg = cluster.RestoreConfig(s.Cfg)
	tb.cfgFinal = cluster.RestoreConfig(s.CfgFinal)
	tb.rates = make(map[string]float64, len(s.Rates))
	for k, v := range s.Rates {
		tb.rates[k] = v
	}
	tb.phases = nil
	for _, ps := range s.Phases {
		ph := phase{
			start:        time.Duration(ps.StartNS),
			end:          time.Duration(ps.EndNS),
			action:       ps.Action,
			pred:         clonePrediction(ps.Pred),
			cfgAfter:     cluster.RestoreConfig(ps.CfgAfter),
			applyAtStart: ps.ApplyAtStart,
			applied:      ps.Applied,
			failed:       ps.Failed,
			rollback:     ps.Rollback,
		}
		tb.phases = append(tb.phases, ph)
	}
	tb.lastMeas = nil
	if s.LastMeas != nil {
		lm := cloneWindow(*s.LastMeas)
		tb.lastMeas = &lm
	}
	return nil
}

// clonePrediction deep-copies a prediction's response-time deltas.
func clonePrediction(p cost.Prediction) cost.Prediction {
	p.DeltaRTSec = maps.Clone(p.DeltaRTSec)
	return p
}

// cloneWindow deep-copies a measurement window's maps.
func cloneWindow(w Window) Window {
	if w.RTSec != nil {
		m := make(map[string]float64, len(w.RTSec))
		for k, v := range w.RTSec {
			m[k] = v
		}
		w.RTSec = m
	}
	if w.HostUtil != nil {
		m := make(map[string]float64, len(w.HostUtil))
		for k, v := range w.HostUtil {
			m[k] = v
		}
		w.HostUtil = m
	}
	if w.Completed != nil {
		m := make(map[string]uint64, len(w.Completed))
		for k, v := range w.Completed {
			m[k] = v
		}
		w.Completed = m
	}
	return w
}
