package strategy

import (
	"maps"
	"math"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/scenario"
)

// PerfPwr is the first baseline of §V-C: it optimizes the steady-state
// performance/power tradeoff with the Perf-Pwr optimizer and executes the
// plan to the resulting configuration whenever the workload changes,
// entirely ignoring transient adaptation costs.
type PerfPwr struct {
	eval *core.Evaluator
	gate rateGate
}

// NewPerfPwr builds the baseline.
func NewPerfPwr(eval *core.Evaluator) *PerfPwr {
	return &PerfPwr{eval: eval}
}

// Name implements scenario.Decider.
func (p *PerfPwr) Name() string { return "Perf-Pwr" }

// Decide implements scenario.Decider.
func (p *PerfPwr) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (scenario.Decision, error) {
	p.eval.BeginWindow()
	if !p.gate.pass(rates) {
		return scenario.Decision{}, nil
	}

	ideal, err := core.PerfPwr(p.eval, rates, core.PerfPwrOptions{})
	if err != nil {
		return scenario.Decision{}, err
	}
	if ideal.Config.Equal(cfg) {
		return scenario.Decision{Invoked: true}, nil
	}
	plan, err := cluster.Plan(p.eval.Catalog(), cfg, ideal.Config)
	if err != nil {
		return scenario.Decision{}, err
	}
	return scenario.Decision{Invoked: true, Plan: plan}, nil
}

// rateEpsilon is the smallest per-application rate change (req/s) the
// Perf-Pwr and Pwr-Cost baselines treat as a workload change: essentially
// any change at the monitoring granularity.
const rateEpsilon = 0.5

// rateGate re-runs a baseline only on a workload change: last holds the
// rates it last ran on (nil before the first run).
type rateGate struct{ last map[string]float64 }

// pass reports whether the baseline runs on rates — the first rates, or
// some application's rate moved by more than rateEpsilon since the rates it
// last ran on — and remembers them if so.
func (g *rateGate) pass(rates map[string]float64) bool {
	if g.last != nil && !g.moved(rates) {
		return false
	}
	g.last = make(map[string]float64, len(rates))
	maps.Copy(g.last, rates)
	return true
}

func (g *rateGate) moved(rates map[string]float64) bool {
	for name, r := range rates {
		if math.Abs(r-g.last[name]) > rateEpsilon {
			return true
		}
	}
	return false
}

// RecordWindow implements scenario.Decider (unused by this baseline).
func (p *PerfPwr) RecordWindow(utilityDollars, perfRate, pwrRate float64) {}
