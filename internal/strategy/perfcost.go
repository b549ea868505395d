package strategy

import (
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/utility"
)

// PerfCost is the second baseline of §V-C: it multiplexes a fixed pool of
// always-on hosts to maximize performance utility, incorporating adaptation
// durations and performance overheads into each control window's
// optimization — but it considers neither consolidation onto fewer hosts
// nor any power term, steady or transient.
//
// It is built as a Mistral-style controller whose utility model prices
// power at zero and whose action space excludes host power cycling; its
// cost tables still charge response-time transients, so it is cost-aware
// on the performance axis exactly as the paper describes.
type PerfCost struct {
	ctrl *core.Controller
	eval *core.Evaluator
}

// NewPerfCost builds the baseline over the shared catalog/model/cost
// manager but a power-blind utility. baseUtil provides the applications and
// monitoring interval; its power price is ignored.
func NewPerfCost(eval *core.Evaluator, baseUtil *utility.Params) (*PerfCost, error) {
	blind := &utility.Params{
		MonitoringInterval:       baseUtil.MonitoringInterval,
		PowerCostPerWattInterval: 0, // power is free: a fixed pool is paid for anyway
		Apps:                     baseUtil.Apps,
	}
	blindEval, err := core.NewEvaluator(eval.Catalog(), eval.Model(), blind, eval.Costs())
	if err != nil {
		return nil, err
	}

	// The paper allots 2 hosts per application, sized so each pool handles
	// its app's peak. Under this reproduction's capacity calibration a
	// strict 2-host allotment cannot serve the synthetic 100 req/s peaks
	// (see DESIGN.md §2), so the fixed pool is interpreted as the whole
	// always-on cluster: the baseline keeps its §V-C role — performance-
	// and cost-aware, power-blind, never consolidating — without being
	// crippled by an allotment the calibration cannot honor. Hard per-app
	// pools remain available via core.ControllerOptions.AppHostPools.
	ctrl, err := core.NewController(blindEval, core.ControllerOptions{
		Name:      "Perf-Cost",
		BandWidth: 0, // react to any workload change
		Scope:     core.ScopeFull,
		Space: cluster.ActionSpace{Kinds: []cluster.ActionKind{
			cluster.ActionIncreaseCPU, cluster.ActionDecreaseCPU,
			cluster.ActionAddReplica, cluster.ActionRemoveReplica,
			cluster.ActionMigrate,
		}},
		Search:             core.SearchOptions{SelfAware: true},
		MonitoringInterval: baseUtil.MonitoringInterval,
	})
	if err != nil {
		return nil, err
	}
	return &PerfCost{ctrl: ctrl, eval: blindEval}, nil
}

// Name implements scenario.Decider.
func (p *PerfCost) Name() string { return "Perf-Cost" }

// Decide implements scenario.Decider.
func (p *PerfCost) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (scenario.Decision, error) {
	p.eval.BeginWindow()
	d, err := p.ctrl.Decide(now, cfg, rates)
	if err != nil {
		return scenario.Decision{}, err
	}
	out := scenario.Decision{
		Invoked:        d.Invoked,
		Plan:           d.Plan,
		SearchTime:     d.Search.SearchTime,
		SearchCost:     d.Search.SearchCost,
		Expansions:     d.Search.Expanded,
		Degraded:       d.Degraded,
		DegradedReason: d.DegradedReason,
	}
	if d.Prov != nil {
		out.Provs = []*provenance.DecisionProv{d.Prov}
	}
	return out, nil
}

// RecordWindow implements scenario.Decider.
func (p *PerfCost) RecordWindow(utilityDollars, perfRate, pwrRate float64) {
	// The baseline is power-blind: strip the power component (pwrRate is
	// non-positive) from the window's dollars before feeding its UH.
	m := p.ctrl.Options().MonitoringInterval.Seconds()
	p.ctrl.RecordWindow(utilityDollars-pwrRate*m, perfRate, 0)
}
