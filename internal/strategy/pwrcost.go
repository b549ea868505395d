package strategy

import (
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/predict"
	"github.com/mistralcloud/mistral/internal/scenario"
)

// PwrCost is the third baseline of §V-C, inspired by pMapper: response-time
// targets are hard constraints. For each observed request rate it computes,
// via the modified Perf-Pwr optimizer, static VM capacities just large
// enough to meet every target, packed onto as few hosts as possible; it
// then weighs the plan's transient (migration/power-cycling) cost against
// the power saved over the predicted stability interval. It never trades
// response time away — if the current configuration misses a target, the
// plan executes regardless of cost.
type PwrCost struct {
	eval      *core.Evaluator
	est       *predict.Estimator
	gate      rateGate
	bandStart time.Duration
	started   bool
}

// NewPwrCost builds the baseline.
func NewPwrCost(eval *core.Evaluator) *PwrCost {
	return &PwrCost{
		eval: eval,
		est:  predict.NewEstimator(0, 0, 4*time.Minute),
	}
}

// Name implements scenario.Decider.
func (p *PwrCost) Name() string { return "Pwr-Cost" }

// RecordWindow implements scenario.Decider (unused: the baseline carries no
// utility feedback).
func (p *PwrCost) RecordWindow(utilityDollars, perfRate, pwrRate float64) {}

// Decide implements scenario.Decider.
func (p *PwrCost) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (scenario.Decision, error) {
	p.eval.BeginWindow()
	if !p.gate.pass(rates) {
		return scenario.Decision{}, nil
	}
	if p.started {
		p.est.Observe(now - p.bandStart)
	}
	p.bandStart = now
	p.started = true
	cw := p.est.Predict()
	if cw < 2*time.Minute {
		cw = 2 * time.Minute
	}

	target, err := core.PerfPwrMeetingTargets(p.eval, rates)
	if err != nil {
		// Targets unreachable even at maximum capacity: fall back to the
		// best-performing configuration available.
		target, err = core.PerfPwr(p.eval, rates, core.PerfPwrOptions{})
		if err != nil {
			return scenario.Decision{}, err
		}
	}
	if target.Config.Equal(cfg) {
		return scenario.Decision{Invoked: true}, nil
	}
	plan, err := cluster.Plan(p.eval.Catalog(), cfg, target.Config)
	if err != nil {
		return scenario.Decision{}, err
	}

	// The consolidation tradeoff: power saved over the stability interval
	// must exceed the transient cost — unless the current configuration
	// violates a target, in which case capacity comes first.
	violating, err := p.violatesTargets(cfg, rates)
	if err != nil {
		return scenario.Decision{}, err
	}
	if !violating {
		planUtil, err := core.EvaluatePlan(p.eval, cfg, plan, rates, cw)
		if err != nil {
			return scenario.Decision{}, err
		}
		st, err := p.eval.Steady(cfg, rates)
		if err != nil {
			return scenario.Decision{}, err
		}
		if planUtil <= cw.Seconds()*st.NetRate() {
			return scenario.Decision{Invoked: true}, nil
		}
	}
	return scenario.Decision{Invoked: true, Plan: plan}, nil
}

// violatesTargets reports whether any application's predicted response time
// misses its target in the given configuration.
func (p *PwrCost) violatesTargets(cfg cluster.Config, rates map[string]float64) (bool, error) {
	st, err := p.eval.Steady(cfg, rates)
	if err != nil {
		return false, err
	}
	apps := p.eval.Utility().Apps
	for i, name := range p.eval.Model().AppNames() {
		if a, ok := apps[name]; ok && rates[name] > 0 && st.RT[i] > a.TargetRT.Seconds() {
			return true, nil
		}
	}
	return false, nil
}
