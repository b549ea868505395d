package experiments

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/guard"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// Recipe is the declarative description of one replay environment: what a
// checkpoint records so a fresh process can rebuild it, what the binaries'
// shared flags set, what a fleet change edits, and what a study varies.
// Build assembles it.
type Recipe struct {
	// Lab holds the options as given to NewLab (pre-default): rebuilding
	// applies the same defaulting the original construction did.
	Lab LabOptions
	// Strategy names the decider as strategy.New takes it.
	Strategy string
	// FaultRate is fault.Profile's action-failure probability in [0,1];
	// 0 leaves the fault plane off.
	FaultRate float64
	// FaultSeed seeds the fault schedule (0 = Lab.Seed).
	FaultSeed uint64
	// ExecPolicy is the testbed's plan execution policy.
	ExecPolicy testbed.ExecPolicy
	// Guard screens every plan through the admission guard and circuit
	// breaker before execution.
	Guard bool
	// Mistral holds the Mistral knobs as given (zero = the library
	// default): L2Band, Search.PruneFraction, Search.TimePerChild and
	// Search.MaxExpansions. Build derives the rest of the configuration
	// from the lab, the strategy name and the run, and refuses a recipe
	// that sets any other field.
	Mistral strategy.MistralConfig
}

// PaperRecipe is the paper's base recipe, the one every study varies:
// Mistral on the 2-application lab, its search charged 300 µs per
// generated child.
func PaperRecipe(seed uint64) Recipe {
	return Recipe{
		Lab:      LabOptions{NumApps: 2, Seed: seed},
		Strategy: "mistral",
		Mistral:  strategy.MistralConfig{Search: core.SearchOptions{TimePerChild: 300 * time.Microsecond}},
	}
}

// checkKnobs refuses Mistral knobs no controller can run with, and any
// MistralConfig field outside the four knobs: a checkpoint records only
// those, so nothing else may steer a run.
func (rc Recipe) checkKnobs() error {
	m, s := rc.Mistral, rc.Mistral.Search
	switch {
	case math.IsNaN(m.L2Band) || math.IsInf(m.L2Band, 0) || m.L2Band < 0:
		return fmt.Errorf("experiments: Mistral.L2Band %v is not a finite, non-negative band", m.L2Band)
	case !(s.PruneFraction >= 0 && s.PruneFraction <= 1):
		return fmt.Errorf("experiments: Mistral.Search.PruneFraction %v out of [0,1]", s.PruneFraction)
	case s.TimePerChild < 0:
		return fmt.Errorf("experiments: Mistral.Search.TimePerChild %v is negative", s.TimePerChild)
	case s.MaxExpansions < 0:
		return fmt.Errorf("experiments: Mistral.Search.MaxExpansions %d is negative", s.MaxExpansions)
	}
	if !reflect.DeepEqual(m, strategy.MistralConfig{L2Band: m.L2Band, Search: core.SearchOptions{
		PruneFraction: s.PruneFraction, TimePerChild: s.TimePerChild, MaxExpansions: s.MaxExpansions}}) {
		return errors.New(`experiments: Mistral sets a field other than L2Band, Search.PruneFraction, Search.TimePerChild and Search.MaxExpansions (the naive search is the strategy "naive")`)
	}
	return nil
}

// Replay is an environment built from a Recipe, positioned before window 0.
type Replay struct {
	// Recipe is what was built: Strategy lower-cased, FaultSeed resolved.
	Recipe  Recipe
	Lab     *Lab
	Fault   *fault.Injector // nil while the fault plane is off
	Testbed *testbed.Testbed
	Guard   *guard.Guard // nil unless Recipe.Guard
	Decider scenario.Decider
	Engine  *scenario.Engine
}

// RegisterFlags declares the recipe's flags on fs, with the binaries'
// defaults.
func (rc *Recipe) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&rc.Strategy, "strategy", "mistral", "control strategy: mistral, naive, perf-pwr, perf-cost, pwr-cost")
	fs.IntVar(&rc.Lab.NumApps, "apps", 2, "number of RUBiS applications (1-4)")
	fs.Uint64Var(&rc.Lab.Seed, "seed", 42, "random seed")
	fs.IntVar(&rc.Lab.Zones, "zones", 1, "number of data centers (>1 enables the WAN extension; mistral/naive only)")
	fs.BoolFunc("dvfs", "equip hosts with 60/80% DVFS levels (the §VI extension)", func(s string) error {
		on, err := strconv.ParseBool(s)
		if err != nil {
			return err
		}
		rc.Lab.DVFSLevels = nil
		if on {
			rc.Lab.DVFSLevels = []float64{0.6, 0.8}
		}
		return nil
	})
	fs.Float64Var(&rc.FaultRate, "fault-rate", 0, "action-failure probability in [0,1]; >0 enables the fault plane (delays, host crashes, and sensor faults scale with it)")
	fs.Uint64Var(&rc.FaultSeed, "fault-seed", 0, "fault schedule seed (0 = use -seed)")
	fs.Var(execPolicyValue{&rc.ExecPolicy}, "exec-policy", "plan execution `policy`: fail-forward (keep the applied prefix on failure) or rollback (compensate it, restoring the pre-plan configuration)")
	fs.BoolVar(&rc.Guard, "guard", false, "run every plan through the admission guard and adaptation circuit breaker before execution")
}

// execPolicyValue is the -exec-policy flag: a testbed.ExecPolicy by name.
type execPolicyValue struct{ p *testbed.ExecPolicy }

func (v execPolicyValue) String() string {
	if v.p == nil { // the flag package calls String on a zero Value
		return ""
	}
	return v.p.String()
}

func (v execPolicyValue) Set(s string) error {
	p, err := testbed.ParseExecPolicy(s)
	if err == nil {
		*v.p = p
	}
	return err
}

// Build assembles the recipe's environment: lab, fault plane, testbed,
// guard, evaluator, strategy and engine, in that order. run carries what
// the recipe leaves to the caller. Build fills in the Mistral
// configuration's HostGroups, MonitoringInterval and Provenance (on when
// run records provenance), and run's Traces, Interval, Utility, Fault and
// Guard. A caller-supplied run.Fault replaces the recipe's fault profile.
func (rc Recipe) Build(run scenario.RunConfig) (*Replay, error) {
	if rc.FaultRate < 0 || rc.FaultRate > 1 {
		return nil, fmt.Errorf("experiments: fault rate %v out of [0,1]", rc.FaultRate)
	}
	if err := rc.checkKnobs(); err != nil {
		return nil, err
	}
	rc.FaultSeed = cmp.Or(rc.FaultSeed, rc.Lab.Seed)
	rc.Strategy = strings.ToLower(rc.Strategy)
	lab, err := NewLab(rc.Lab)
	if err != nil {
		return nil, err
	}
	if run.Fault == nil {
		run.Fault = fault.New(fault.Profile(rc.FaultRate, rc.FaultSeed))
	}
	tb, err := lab.NewTestbedExec(run.Fault, rc.ExecPolicy)
	if err != nil {
		return nil, err
	}
	run.Guard = nil
	if rc.Guard {
		run.Guard = guard.New(guard.Config{Obs: run.Obs}, lab.Cat)
	}
	eval, err := lab.NewEvaluator()
	if err != nil {
		return nil, err
	}
	mc := rc.Mistral
	mc.HostGroups = lab.HostGroups()
	mc.MonitoringInterval = lab.Util.MonitoringInterval
	mc.Provenance = run.Provenance.Enabled()
	d, err := strategy.New(rc.Strategy, eval, lab.Util, mc)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	run.Traces = lab.Traces
	run.Interval = lab.Util.MonitoringInterval
	run.Utility = lab.Util
	eng, err := scenario.NewEngine(tb, d, run)
	if err != nil {
		return nil, err
	}
	return &Replay{Recipe: rc, Lab: lab, Fault: run.Fault, Testbed: tb, Guard: run.Guard, Decider: d, Engine: eng}, nil
}
