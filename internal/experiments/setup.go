// Package experiments reproduces every table and figure of the paper's
// evaluation (§V): the migration-cost transients of Fig. 1, the utility
// function of Fig. 3, the workloads of Fig. 4, the model validation of
// Fig. 5, the stability-interval estimation of Fig. 6, the adaptation-cost
// tables of Fig. 7, the four-strategy comparison of Figs. 8–9, the
// search-cost analysis of Fig. 10, and the scalability study of Table I —
// plus ablations beyond the paper. Each experiment is a pure function from
// a Lab (the assembled environment) to a typed result that renders as an
// ASCII table or CSV.
package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/lqn"
	"github.com/mistralcloud/mistral/internal/sim"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/utility"
	"github.com/mistralcloud/mistral/internal/workload"
)

// LabOptions configures a reproduction environment.
type LabOptions struct {
	// NumApps is the number of RUBiS instances (1–4; the paper names them
	// RUBiS-1..4). Default 2.
	NumApps int
	// NumHosts is the number of application hosts (the paper pairs 2 hosts
	// per application). Default 2×NumApps.
	NumHosts int
	// Seed drives workload synthesis, noise, and the request-level
	// simulator.
	Seed uint64
	// ModelErrorPct perturbs the controller's model demands relative to the
	// ground truth, reproducing offline-measurement error (default 4; set
	// negative for a perfect model).
	ModelErrorPct float64
	// Mode selects the testbed fidelity (default analytic).
	Mode testbed.Mode
	// DVFSLevels, when set, equips every host with these frequency levels
	// (the §VI extension); the 1st-level controllers then use SetDVFS as a
	// near-free power knob.
	DVFSLevels []float64
	// Zones, when above 1, spreads the hosts evenly across this many data
	// centers named dc0..dcN-1 (the §VI WAN extension); Mistral then adds
	// a 3rd hierarchy level owning WAN migration.
	Zones int
	// PlanningHeadroom tightens the response-time target the controllers
	// plan against, as a fraction of the scored target (default 0.9):
	// predictor error and measurement noise would otherwise flip windows
	// sitting exactly on the reward/penalty cliff. Set to 1 for no
	// headroom.
	PlanningHeadroom float64
}

func (o LabOptions) withDefaults() LabOptions {
	if o.NumApps <= 0 {
		o.NumApps = 2
	}
	if o.NumHosts <= 0 {
		o.NumHosts = 2 * o.NumApps
	}
	if o.ModelErrorPct == 0 {
		o.ModelErrorPct = 4
	} else if o.ModelErrorPct < 0 {
		o.ModelErrorPct = 0
	}
	if o.Mode == 0 {
		o.Mode = testbed.ModeAnalytic
	}
	if o.PlanningHeadroom <= 0 || o.PlanningHeadroom > 1 {
		o.PlanningHeadroom = 0.9
	}
	return o
}

// Lab is a fully assembled reproduction environment: calibrated application
// models (ground truth and the controller's imperfect copy), catalog,
// utility parameters, cost tables, workloads, and the initial
// configuration.
type Lab struct {
	Opts     LabOptions
	Cat      *cluster.Catalog
	Apps     []*app.Spec // ground truth (drives the testbed)
	CtrlApps []*app.Spec // controller's imperfect model parameters
	AppNames []string
	Util     *utility.Params
	Costs    *cost.Table
	Traces   workload.Set
	Initial  cluster.Config
	// CalibrationScale is the demand scale applied to hit the paper's
	// 400 ms @ 50 req/s default operating point.
	CalibrationScale float64
}

// NewLab builds a Lab.
func NewLab(opts LabOptions) (*Lab, error) {
	opts = opts.withDefaults()
	names := make([]string, opts.NumApps)
	apps := make([]*app.Spec, opts.NumApps)
	for i := range apps {
		names[i] = fmt.Sprintf("rubis%d", i+1)
		apps[i] = app.RUBiS(names[i])
	}
	hosts := make([]cluster.HostSpec, opts.NumHosts)
	for i := range hosts {
		hosts[i] = cluster.DefaultHostSpec(fmt.Sprintf("h%d", i))
		hosts[i].DVFSLevels = opts.DVFSLevels
		if opts.Zones > 1 {
			hosts[i].Zone = fmt.Sprintf("dc%d", i*opts.Zones/opts.NumHosts)
		}
	}
	cat, err := app.BuildCatalog(hosts, apps)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	var initial cluster.Config
	if opts.Zones > 1 {
		// Zone-aware default placement: each application is pinned to a
		// home data center (apps split across DCs would pay permanent WAN
		// latency and could only be repaired by the 3rd level).
		initial, err = zonedDefaultConfig(cat, apps, 40)
	} else {
		initial, err = app.DefaultConfig(cat, apps, opts.NumHosts, 40)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	load := make(map[string]float64, len(names))
	for _, n := range names {
		load[n] = 50
	}
	scale, err := lqn.CalibrateDemands(cat, apps, initial, load, names[0])
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	// The controller's model parameters come from an offline measurement
	// phase; perturb them against the ground truth accordingly.
	rng := sim.NewRNG(opts.Seed, 0xfeed)
	ctrlApps := make([]*app.Spec, len(apps))
	for i, a := range apps {
		c := a.Clone(a.Name)
		if opts.ModelErrorPct > 0 {
			for j := range c.Txns {
				// Perturb tiers in sorted order: map iteration order would
				// make the "offline measurement error" irreproducible.
				tiers := make([]string, 0, len(c.Txns[j].DemandMS))
				for tier := range c.Txns[j].DemandMS {
					tiers = append(tiers, tier)
				}
				sort.Strings(tiers)
				scaled := make(map[string]float64, len(tiers))
				for _, tier := range tiers {
					scaled[tier] = rng.Jitter(c.Txns[j].DemandMS[tier], opts.ModelErrorPct/100)
				}
				c.Txns[j].DemandMS = scaled
			}
		}
		ctrlApps[i] = c
	}

	return &Lab{
		Opts:             opts,
		Cat:              cat,
		Apps:             apps,
		CtrlApps:         ctrlApps,
		AppNames:         names,
		Util:             utility.PaperParams(names),
		Costs:            cost.PaperTable(),
		Traces:           workload.PaperWorkloads(opts.Seed, names),
		Initial:          initial,
		CalibrationScale: scale,
	}, nil
}

// zonedDefaultConfig places each application's tiers within a single home
// zone (round-robin over zones), powering on every host.
func zonedDefaultConfig(cat *cluster.Catalog, apps []*app.Spec, cpuPct float64) (cluster.Config, error) {
	zones := cat.Zones()
	cfg := cluster.NewConfig()
	for _, h := range cat.HostNames() {
		cfg.SetHostOn(h, true)
	}
	for i, a := range apps {
		zone := zones[i%len(zones)]
		zoneHosts := cat.HostsInZone(zone)
		for _, t := range a.Tiers {
			placed := false
			best, bestFree := "", 0.0
			for _, h := range zoneHosts {
				spec, _ := cat.Host(h)
				free := spec.UsableCPUPct - cfg.AllocatedCPU(h)
				if free >= cpuPct && len(cfg.VMsOnHost(h)) < spec.MaxVMs && free > bestFree {
					best, bestFree = h, free
				}
			}
			if best != "" {
				cfg.Place(a.VMIDFor(t.Name, 0), best, cpuPct)
				placed = true
			}
			if !placed {
				return cluster.Config{}, fmt.Errorf("experiments: cannot place %s/%s in zone %s", a.Name, t.Name, zone)
			}
		}
	}
	if vs := cfg.Validate(cat); len(vs) > 0 {
		return cluster.Config{}, fmt.Errorf("experiments: zoned default config invalid: %v", vs[0])
	}
	return cfg, nil
}

// NewTestbed builds a fresh virtual testbed in the lab's initial
// configuration with the traces' rates at time zero.
func (l *Lab) NewTestbed() (*testbed.Testbed, error) {
	return l.NewTestbedExec(nil, testbed.FailForward)
}

// NewTestbedExec is NewTestbed with a fault injector wired into the
// testbed's execution and measurement paths (a nil injector injects
// nothing) and an explicit execution policy; RollbackOnFailure makes plans
// transactional (compensating inverse actions on non-retryable failure).
func (l *Lab) NewTestbedExec(inj *fault.Injector, exec testbed.ExecPolicy) (*testbed.Testbed, error) {
	tb, err := testbed.New(l.Cat, l.Apps, l.Initial, l.Traces.At(0), l.Costs, testbed.Options{
		Mode:  l.Opts.Mode,
		Seed:  l.Opts.Seed,
		Fault: inj,
		Exec:  exec,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return tb, nil
}

// NewEvaluator builds a controller evaluator over the lab's (imperfect)
// controller model. The evaluator plans against response-time targets
// tightened by the planning headroom; scenario scoring uses the untouched
// targets in l.Util.
func (l *Lab) NewEvaluator() (*core.Evaluator, error) {
	model, err := lqn.NewModel(l.Cat, l.CtrlApps)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	costMgr, err := cost.NewManager(l.Cat, l.Costs, workload.SessionsPerReqSec)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	planUtil := &utility.Params{
		MonitoringInterval:       l.Util.MonitoringInterval,
		PowerCostPerWattInterval: l.Util.PowerCostPerWattInterval,
		Apps:                     make(map[string]utility.AppParams, len(l.Util.Apps)),
	}
	for name, a := range l.Util.Apps {
		a.TargetRT = time.Duration(float64(a.TargetRT) * l.Opts.PlanningHeadroom)
		// Plan with a graded penalty: when no configuration can meet a
		// target, prefer the least-degraded service instead of shedding
		// capacity for power. Scoring (l.Util) keeps the paper's flat Eq. 1.
		a.PenaltyGradient = 1.5
		planUtil.Apps[name] = a
	}
	eval, err := core.NewEvaluator(l.Cat, model, planUtil, costMgr)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return eval, nil
}

// TrueEvaluator builds an evaluator over the ground-truth model (used to
// compute ideal utilities for Table I).
func (l *Lab) TrueEvaluator() (*core.Evaluator, error) {
	model, err := lqn.NewModel(l.Cat, l.Apps)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	costMgr, err := cost.NewManager(l.Cat, l.Costs, workload.SessionsPerReqSec)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	eval, err := core.NewEvaluator(l.Cat, model, l.Util, costMgr)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return eval, nil
}

// HostGroups partitions the lab's hosts for the 1st-level controllers,
// following the paper: the 2-app scenario uses one group with all hosts;
// larger scenarios split hosts into two groups. Multi-zone labs group per
// zone so 1st-level migrations never cross a WAN boundary.
func (l *Lab) HostGroups() [][]string {
	if zones := l.Cat.Zones(); len(zones) > 1 {
		groups := make([][]string, 0, len(zones))
		for _, z := range zones {
			groups = append(groups, l.Cat.HostsInZone(z))
		}
		return groups
	}
	hosts := l.Cat.HostNames()
	if l.Opts.NumApps <= 2 {
		return [][]string{hosts}
	}
	mid := (len(hosts) + 1) / 2
	return [][]string{hosts[:mid], hosts[mid:]}
}
