package strategy

import (
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
	last map[string]float64
	// RateEpsilon is the minimum per-app rate change (req/s) treated as "a
	// workload change was observed" (default 0.5 — essentially any change
	// at the monitoring granularity).
	RateEpsilon float64
}

// NewPerfPwr builds the baseline.
func NewPerfPwr(eval *core.Evaluator) *PerfPwr {
	return &PerfPwr{eval: eval, RateEpsilon: 0.5}
}

// Name implements scenario.Decider.
func (p *PerfPwr) Name() string { return "Perf-Pwr" }

// Decide implements scenario.Decider.
func (p *PerfPwr) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (scenario.Decision, error) {
	p.eval.BeginWindow()
	if !p.changed(rates) {
		return scenario.Decision{}, nil
	}
	p.remember(rates)

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

func (p *PerfPwr) changed(rates map[string]float64) bool {
	if p.last == nil {
		return true
	}
	for name, r := range rates {
		if math.Abs(r-p.last[name]) > p.RateEpsilon {
			return true
		}
	}
	return false
}

func (p *PerfPwr) remember(rates map[string]float64) {
	p.last = make(map[string]float64, len(rates))
	for k, v := range rates {
		p.last[k] = v
	}
}

// RecordWindow implements scenario.Decider (unused by this baseline).
func (p *PerfPwr) RecordWindow(utilityDollars, perfRate, pwrRate float64) {}
