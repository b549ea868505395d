package mistral

import (
	"fmt"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/lqn"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/workload"
)

// SystemOptions configures NewSystem. The zero value builds the paper's
// 2-application evaluation setup.
type SystemOptions struct {
	// Apps are the managed applications; default: NumApps RUBiS instances
	// named rubis1..N, calibrated to the paper's 400 ms @ 50 req/s
	// operating point.
	Apps []*AppSpec
	// NumApps is used when Apps is nil (default 2).
	NumApps int
	// Hosts are the physical machines; default: 2 per application with the
	// paper's host spec.
	Hosts []HostSpec
	// Seed drives workload synthesis, noise, and simulation.
	Seed uint64
	// Mode selects testbed fidelity (default analytic).
	Mode TestbedMode
	// ModelErrorPct perturbs the controllers' model parameters relative to
	// ground truth (default 4%; negative for a perfect model).
	ModelErrorPct float64
}

// System is an assembled managed cluster: catalog, applications, utility
// and cost models, and workload traces. It is the entry point for running
// controllers.
type System struct {
	lab *experiments.Lab
}

// NewSystem assembles a system.
func NewSystem(opts SystemOptions) (*System, error) {
	if opts.Apps != nil || opts.Hosts != nil {
		return newCustomSystem(opts)
	}
	lab, err := experiments.NewLab(experiments.LabOptions{
		NumApps:       opts.NumApps,
		Seed:          opts.Seed,
		Mode:          opts.Mode,
		ModelErrorPct: opts.ModelErrorPct,
	})
	if err != nil {
		return nil, err
	}
	return &System{lab: lab}, nil
}

// newCustomSystem assembles a system from caller-provided apps/hosts.
func newCustomSystem(opts SystemOptions) (*System, error) {
	apps := opts.Apps
	if apps == nil {
		n := opts.NumApps
		if n <= 0 {
			n = 2
		}
		apps = make([]*AppSpec, n)
		for i := range apps {
			apps[i] = RUBiS(fmt.Sprintf("rubis%d", i+1))
		}
	}
	hosts := opts.Hosts
	if hosts == nil {
		hosts = make([]HostSpec, 2*len(apps))
		for i := range hosts {
			hosts[i] = DefaultHostSpec(fmt.Sprintf("h%d", i))
		}
	}
	cat, err := app.BuildCatalog(hosts, apps)
	if err != nil {
		return nil, err
	}
	initial, err := app.DefaultConfig(cat, apps, len(hosts), 40)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(apps))
	load := make(map[string]float64, len(apps))
	for i, a := range apps {
		names[i] = a.Name
		load[a.Name] = 50
	}
	scale, err := lqn.CalibrateDemands(cat, apps, initial, load, names[0])
	if err != nil {
		return nil, err
	}
	ctrlApps := make([]*AppSpec, len(apps))
	for i, a := range apps {
		ctrlApps[i] = a.Clone(a.Name)
	}
	lab := &experiments.Lab{
		Opts: experiments.LabOptions{
			NumApps:          len(apps),
			NumHosts:         len(hosts),
			Seed:             opts.Seed,
			Mode:             opts.Mode,
			PlanningHeadroom: 0.9,
		},
		Cat:              cat,
		Apps:             apps,
		CtrlApps:         ctrlApps,
		AppNames:         names,
		Util:             PaperUtility(names),
		Costs:            cost.PaperTable(),
		Traces:           workload.PaperWorkloads(opts.Seed, names),
		Initial:          initial,
		CalibrationScale: scale,
	}
	if lab.Opts.Mode == 0 {
		lab.Opts.Mode = testbed.ModeAnalytic
	}
	return &System{lab: lab}, nil
}

// Catalog returns the managed catalog.
func (s *System) Catalog() *Catalog { return s.lab.Cat }

// Apps returns the managed applications.
func (s *System) Apps() []*AppSpec { return s.lab.Apps }

// Utility returns the scoring utility parameters.
func (s *System) Utility() *UtilityParams { return s.lab.Util }

// InitialConfig returns the default configuration (every tier at 40% CPU).
func (s *System) InitialConfig() Config { return s.lab.Initial.Clone() }

// Workloads returns the paper's Fig. 4 traces for this system's apps.
func (s *System) Workloads() WorkloadSet { return s.lab.Traces }

// NewTestbed builds a fresh virtual testbed in the initial configuration.
func (s *System) NewTestbed() (*Testbed, error) { return s.lab.NewTestbed() }

// ControllerOptions configures NewMistral.
type ControllerOptions struct {
	// HostGroups are the 1st-level controllers' scopes; nil creates one
	// group with every host.
	HostGroups [][]string
	// L2Band is the 2nd-level workload band in req/s (default 8).
	L2Band float64
	// Naive selects the naive search instead of Self-Aware A*.
	Naive bool
	// Search tunes the A* search.
	Search SearchOptions
}

// NewMistral builds the hierarchical Mistral controller for this system.
func (s *System) NewMistral(opts ControllerOptions) (*MistralController, error) {
	eval, err := s.lab.NewEvaluator()
	if err != nil {
		return nil, err
	}
	return strategy.NewMistral(eval, strategy.MistralConfig{
		HostGroups:         opts.HostGroups,
		L2Band:             opts.L2Band,
		Naive:              opts.Naive,
		Search:             opts.Search,
		MonitoringInterval: s.lab.Util.MonitoringInterval,
	})
}

// NewPerfPwrBaseline builds the cost-blind Perf-Pwr baseline (§V-C).
func (s *System) NewPerfPwrBaseline() (Decider, error) {
	eval, err := s.lab.NewEvaluator()
	if err != nil {
		return nil, err
	}
	return strategy.NewPerfPwr(eval), nil
}

// NewPerfCostBaseline builds the power-blind Perf-Cost baseline (§V-C).
func (s *System) NewPerfCostBaseline() (Decider, error) {
	eval, err := s.lab.NewEvaluator()
	if err != nil {
		return nil, err
	}
	return strategy.NewPerfCost(eval, s.lab.Util)
}

// NewPwrCostBaseline builds the pMapper-style Pwr-Cost baseline (§V-C).
func (s *System) NewPwrCostBaseline() (Decider, error) {
	eval, err := s.lab.NewEvaluator()
	if err != nil {
		return nil, err
	}
	return strategy.NewPwrCost(eval), nil
}

// IdealConfiguration runs the Perf-Pwr optimizer for the given request
// rates: the best performance/power configuration ignoring transient
// costs.
func (s *System) IdealConfiguration(rates map[string]float64) (Ideal, error) {
	eval, err := s.lab.NewEvaluator()
	if err != nil {
		return Ideal{}, err
	}
	return core.PerfPwr(eval, rates, core.PerfPwrOptions{})
}

// Replay drives the system under a strategy. A nil traces set uses the
// paper's Fig. 4 workloads; a zero duration replays the traces fully.
func (s *System) Replay(d Decider, traces WorkloadSet) (*RunResult, error) {
	return s.ReplayFor(d, traces, 0)
}

// ReplayFor is Replay with an explicit duration bound.
func (s *System) ReplayFor(d Decider, traces WorkloadSet, duration time.Duration) (*RunResult, error) {
	if traces == nil {
		traces = s.lab.Traces
	}
	tb, err := s.lab.NewTestbed()
	if err != nil {
		return nil, err
	}
	if err := tb.SetRates(traces.At(0)); err != nil {
		return nil, err
	}
	return scenario.Run(tb, d, scenario.RunConfig{
		Traces:   traces,
		Duration: duration,
		Interval: s.lab.Util.MonitoringInterval,
		Utility:  s.lab.Util,
	})
}
