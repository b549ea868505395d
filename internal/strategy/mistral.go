// Package strategy implements the four control strategies compared in §V-C:
// the Mistral multi-level hierarchy and the three baselines that each trade
// off only two of the three objectives — Perf-Pwr (performance vs power, no
// transient costs), Perf-Cost (performance vs adaptation cost on a fixed
// power budget), and Pwr-Cost (power vs adaptation cost under hard
// performance constraints, after pMapper).
//
// Every strategy satisfies the scenario.Decider interface structurally.
package strategy

import (
	"fmt"
	"sync"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
)

// MistralConfig configures the hierarchical Mistral strategy.
type MistralConfig struct {
	// HostGroups are the 1st-level controllers' host scopes; nil creates a
	// single group containing every host.
	HostGroups [][]string
	// L2Band is the 2nd-level controller's workload band width in req/s
	// (default 8, the paper's setting). 1st-level bands are always 0.
	L2Band float64
	// Search configures the A* search; its SelfAware flag is overridden by
	// Naive below.
	Search core.SearchOptions
	// Naive selects the naive search for both levels (the Fig. 10
	// comparison); the default is the Self-Aware search.
	Naive bool
	// MonitoringInterval is M (default 2 minutes).
	MonitoringInterval time.Duration
	// Deprecated: Workers is ignored; it remains only because bench/ sets it.
	Workers int
	// Obs overrides the process-default observer (obs.SetDefault) for
	// every controller in the hierarchy; nil resolves the default.
	Obs *obs.Observer
	// Provenance enables the decision flight recorder on every controller
	// in the hierarchy: Decide returns scenario.Decision.Provs entries in
	// controller order. Off by default; decisions are identical either way.
	Provenance bool
}

// LevelStats aggregates search activity per hierarchy level (Table I).
type LevelStats struct {
	Invocations int
	TotalSearch time.Duration
}

// MeanSearch is the average search duration per invocation.
func (s LevelStats) MeanSearch() time.Duration {
	if s.Invocations == 0 {
		return 0
	}
	return s.TotalSearch / time.Duration(s.Invocations)
}

// Mistral is the paper's controller arranged as a two-level hierarchy: fast
// 1st-level controllers with zero-width bands that tune CPU and migrate
// within their host group, and a 2nd-level controller with a wider band and
// the full action set over all hosts.
type Mistral struct {
	name string
	eval *core.Evaluator
	l3   *core.Controller // nil in single-zone deployments
	l2   *core.Controller
	l1   []*core.Controller

	// statsMu guards stats, so Stats/StatsL3 are safe to poll while
	// another goroutine drives Decide.
	statsMu sync.Mutex
	stats   [3]LevelStats // [0] = level 1 aggregate, [1] = level 2, [2] = level 3
}

// l3Band is the 3rd-level (cross-data-center) controller's band width in
// req/s. The 3rd level exists only when the catalog spans more than one
// zone; it alone wields WAN migration (§VI extension) and plans over much
// longer control windows.
const l3Band = 20

// NewMistral builds the hierarchy over a shared evaluator.
func NewMistral(eval *core.Evaluator, cfg MistralConfig) (*Mistral, error) {
	if cfg.L2Band <= 0 {
		cfg.L2Band = 8
	}
	if cfg.MonitoringInterval <= 0 {
		cfg.MonitoringInterval = 2 * time.Minute
	}
	search := cfg.Search
	search.SelfAware = !cfg.Naive

	groups := cfg.HostGroups
	if len(groups) == 0 {
		groups = [][]string{eval.Catalog().HostNames()}
	}
	name := "Mistral"
	if cfg.Naive {
		name = "Mistral-Naive"
	}

	multiZone := len(eval.Catalog().Zones()) > 1
	l2Space := cluster.ActionSpace{}
	if multiZone {
		// WAN migration belongs to the 3rd level only.
		l2Space.Kinds = []cluster.ActionKind{
			cluster.ActionIncreaseCPU, cluster.ActionDecreaseCPU,
			cluster.ActionAddReplica, cluster.ActionRemoveReplica,
			cluster.ActionMigrate, cluster.ActionStartHost,
			cluster.ActionStopHost, cluster.ActionSetDVFS,
		}
	}
	l2, err := core.NewController(eval, core.ControllerOptions{
		Name:               name + "/L2",
		BandWidth:          cfg.L2Band,
		Scope:              core.ScopeFull,
		Space:              l2Space,
		PinAppsToZones:     multiZone, // WAN moves belong to the 3rd level
		Search:             search,
		MonitoringInterval: cfg.MonitoringInterval,
		Obs:                cfg.Obs,
		Provenance:         cfg.Provenance,
	})
	if err != nil {
		return nil, err
	}
	m := &Mistral{name: name, eval: eval, l2: l2}
	if multiZone {
		l3, err := core.NewController(eval, core.ControllerOptions{
			Name:               name + "/L3",
			BandWidth:          l3Band,
			Scope:              core.ScopeFull,
			Search:             search,
			MonitoringInterval: cfg.MonitoringInterval,
			// WAN migrations take tens of minutes: plan over hour-scale
			// windows or they can never pay off.
			MinCW:      30 * time.Minute,
			Obs:        cfg.Obs,
			Provenance: cfg.Provenance,
		})
		if err != nil {
			return nil, err
		}
		m.l3 = l3
	}
	for i, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("strategy: empty host group %d", i)
		}
		l1, err := core.NewController(eval, core.ControllerOptions{
			Name:      fmt.Sprintf("%s/L1-%d", name, i),
			BandWidth: 0,
			Hosts:     g,
			Scope:     core.ScopeSubset,
			Space: cluster.ActionSpace{
				// The quickest knobs: CPU tuning, local migration, and (on
				// hosts that support it) DVFS — the §VI extension.
				Kinds: []cluster.ActionKind{
					cluster.ActionIncreaseCPU, cluster.ActionDecreaseCPU,
					cluster.ActionMigrate, cluster.ActionSetDVFS,
				},
				Hosts: g,
			},
			Search:             search,
			MonitoringInterval: cfg.MonitoringInterval,
			Obs:                cfg.Obs,
			Provenance:         cfg.Provenance,
		})
		if err != nil {
			return nil, err
		}
		m.l1 = append(m.l1, l1)
	}
	return m, nil
}

// Name implements scenario.Decider.
func (m *Mistral) Name() string { return m.name }

// SetTraceContext implements scenario.TraceAware: the window's causal
// identity fans out to every controller in the hierarchy, so their
// spans — including every 1st-level search — carry the same trace
// ID as the scenario's root decide span and the window's provenance
// record. Called once per window before Decide, never concurrently
// with it.
func (m *Mistral) SetTraceContext(tc obs.TraceContext) {
	if m.l3 != nil {
		m.l3.SetTraceContext(tc)
	}
	m.l2.SetTraceContext(tc)
	for _, l1 := range m.l1 {
		l1.SetTraceContext(tc)
	}
}

// Stats returns per-level search statistics: level 1 (aggregated across its
// controllers) and level 2.
func (m *Mistral) Stats() (l1, l2 LevelStats) {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return m.stats[0], m.stats[1]
}

// StatsL3 returns the 3rd-level controller's statistics (zero when the
// deployment spans a single zone).
func (m *Mistral) StatsL3() LevelStats {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return m.stats[2]
}

// addStats accumulates one decision into a level's statistics.
func (m *Mistral) addStats(level int, searchTime time.Duration) {
	m.statsMu.Lock()
	m.stats[level].Invocations++
	m.stats[level].TotalSearch += searchTime
	m.statsMu.Unlock()
}

// Decide implements scenario.Decider: if the 2nd-level band is violated the
// 2nd-level controller decides with the full action set; otherwise every
// 1st-level controller refines its own host group. 1st-level decisions on
// disjoint host groups concatenate into one plan. The paper's 1st-level
// controllers run independently, side by side, so the decision delay is the
// slowest of them, even though this process decides them one after another.
func (m *Mistral) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (scenario.Decision, error) {
	// One window boundary per control opportunity, before any controller
	// evaluates: every level consulted below shares the window's memo.
	m.eval.BeginWindow()
	// Provenance entries accumulate across the levels consulted this
	// opportunity, in controller order (L3 first when it ran, even if its
	// empty plan fell through to the lower levels); so do expansions.
	var provs []*provenance.DecisionProv
	expanded := 0
	if m.l3 != nil && m.l3.ShouldRun(rates) {
		d, err := m.l3.Decide(now, cfg, rates)
		if err != nil {
			return scenario.Decision{}, err
		}
		m.addStats(2, d.Search.SearchTime)
		if d.Prov != nil {
			provs = append(provs, d.Prov)
		}
		expanded = d.Search.Expanded
		if len(d.Plan) > 0 {
			return scenario.Decision{
				Invoked:        d.Invoked,
				Plan:           d.Plan,
				SearchTime:     d.Search.SearchTime,
				SearchCost:     d.Search.SearchCost,
				Expansions:     expanded,
				Degraded:       d.Degraded,
				DegradedReason: d.DegradedReason,
				Provs:          provs,
			}, nil
		}
		// An empty 3rd-level plan falls through: the lower levels refine.
	}
	if m.l2.ShouldRun(rates) {
		d, err := m.l2.Decide(now, cfg, rates)
		if err != nil {
			return scenario.Decision{}, err
		}
		m.addStats(1, d.Search.SearchTime)
		if d.Prov != nil {
			provs = append(provs, d.Prov)
		}
		return scenario.Decision{
			Invoked:        d.Invoked,
			Plan:           d.Plan,
			SearchTime:     d.Search.SearchTime,
			SearchCost:     d.Search.SearchCost,
			Expansions:     expanded + d.Search.Expanded,
			Degraded:       d.Degraded,
			DegradedReason: d.DegradedReason,
			Provs:          provs,
		}, nil
	}
	// 1st-level results merge in controller order: plans, provenance and
	// the SearchCost sum (float addition is order-sensitive) depend on it.
	out := scenario.Decision{Provs: provs, Expansions: expanded}
	for _, l1 := range m.l1 {
		d, err := l1.Decide(now, cfg, rates)
		if err != nil {
			return scenario.Decision{}, err
		}
		if !d.Invoked {
			continue
		}
		m.addStats(0, d.Search.SearchTime)
		out.Invoked = true
		if d.Degraded {
			out.Degraded = true
			reason := d.DegradedReason
			if reason == "" {
				reason = "fallback"
			}
			if out.DegradedReason != "" {
				out.DegradedReason += "; "
			}
			out.DegradedReason += l1.Name() + ": " + reason
		}
		if d.Prov != nil {
			out.Provs = append(out.Provs, d.Prov)
		}
		out.SearchCost += d.Search.SearchCost
		out.Expansions += d.Search.Expanded
		if d.Search.SearchTime > out.SearchTime {
			out.SearchTime = d.Search.SearchTime
		}
		out.Plan = append(out.Plan, d.Plan...)
	}
	return out, nil
}

// RecordWindow implements scenario.Decider: every controller sees realized
// window utilities for its UH estimate.
func (m *Mistral) RecordWindow(utilityDollars, perfRate, pwrRate float64) {
	if m.l3 != nil {
		m.l3.RecordWindow(utilityDollars, perfRate, pwrRate)
	}
	m.l2.RecordWindow(utilityDollars, perfRate, pwrRate)
	for _, l1 := range m.l1 {
		l1.RecordWindow(utilityDollars, perfRate, pwrRate)
	}
}
