// Package mistral is a Go reproduction of "Mistral: Dynamically Managing
// Power, Performance, and Adaptation Cost in Cloud Infrastructures"
// (Jung, Hiltunen, Joshi, Schlichting, Pu — ICDCS 2010).
//
// Mistral is a utility-driven controller for consolidated, virtualized
// clusters. It jointly optimizes steady-state application performance
// (mean response time against per-application targets), steady-state power
// consumption, and the transient cost of adaptation actions — including
// the cost of its own decision procedure. Adaptation plans are sequences
// of six actions (CPU capacity tuning, replica addition/removal, VM live
// migration, host power cycling) found by an A* search whose admissible
// heuristic is the "ideal utility" of a performance/power-only optimizer,
// with a Self-Aware variant that prunes its own search when the cost of
// deciding outgrows the expected benefit.
//
// Because the paper's physical testbed (Xen hosts, RUBiS, power meters,
// proprietary traces) is not reproducible directly, this module also
// implements every substrate in Go: a discrete-event request-level
// simulator of multi-tier applications, a layered-queueing-network
// performance model, a utilization-based power model, workload-trace
// synthesis, adaptation-cost tables, and a virtual testbed that executes
// adaptation plans with their measured transient costs. See DESIGN.md for
// the substitution inventory and EXPERIMENTS.md for paper-vs-measured
// results for every table and figure.
//
// # Quick start
//
// Every replay — each binary's, each study's and a library caller's — is a
// Recipe (a lab, a strategy, the fault plane) built for one run:
//
//	rep, err := mistral.Recipe{
//		Lab:      mistral.LabOptions{NumApps: 2, Seed: 42},
//		Strategy: "mistral", // or naive, perf-pwr, perf-cost, pwr-cost
//	}.Build(mistral.RunConfig{}) // zero Duration: the whole Fig. 4 day
//	if err != nil { ... }
//	result, err := rep.Engine.Run()
//	if err != nil { ... }
//	fmt.Printf("cumulative utility: %.1f\n", result.CumUtility)
//
// A caller-written Decider replays through Run on a Lab's testbed. The
// cmd/mistral-exp binary regenerates the paper's tables and figures.
package mistral

import (
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// Replay construction: one recipe builds every replay.
type (
	// Recipe is the declarative description of one replay environment:
	// lab, strategy, fault plane, execution policy, guard and the Mistral
	// knobs. Recipe.Build assembles it.
	Recipe = experiments.Recipe
	// Replay is a built Recipe positioned before window 0; its Engine
	// steps or runs the replay.
	Replay = experiments.Replay
	// RunConfig carries what a Recipe leaves to the caller: the replay's
	// Duration, observer, provenance recorder and retry policy.
	RunConfig = scenario.RunConfig
	// Lab is an assembled reproduction environment: catalog, calibrated
	// applications, workloads, utility and cost models.
	Lab = experiments.Lab
	// LabOptions configures a Lab.
	LabOptions = experiments.LabOptions
)

// PaperRecipe is the paper's base recipe, the one every study varies:
// Mistral on the 2-application lab, its search charged 300 µs per
// generated child.
func PaperRecipe(seed uint64) Recipe { return experiments.PaperRecipe(seed) }

// NewLab assembles a reproduction environment.
func NewLab(opts LabOptions) (*Lab, error) { return experiments.NewLab(opts) }

// Run replays d on tb, stepping every monitoring window of cfg. A Recipe
// builds the paper's strategies; Run is for a caller-written Decider, on a
// testbed from Lab.NewTestbed with cfg's Traces, Interval and Utility taken
// from the same Lab.
func Run(tb *Testbed, d Decider, cfg RunConfig) (*RunResult, error) { return scenario.Run(tb, d, cfg) }

// PerfPwr runs the Perf-Pwr optimizer (§IV-A) on lab's controller model for
// the given request rates: the best performance/power configuration,
// ignoring transient costs.
func PerfPwr(lab *Lab, rates map[string]float64) (Ideal, error) {
	eval, err := lab.NewEvaluator()
	if err != nil {
		return Ideal{}, err
	}
	return core.PerfPwr(eval, rates, core.PerfPwrOptions{})
}

// Infrastructure model types.
type (
	// VMID identifies a VM.
	VMID = cluster.VMID
	// Catalog is the immutable description of hosts and VMs under
	// management.
	Catalog = cluster.Catalog
	// Config assigns host power states, VM placements, and CPU
	// allocations.
	Config = cluster.Config
	// Action is one adaptation step.
	Action = cluster.Action
	// ActionKind enumerates the six adaptation actions.
	ActionKind = cluster.ActionKind
)

// Adaptation action kinds (§III-C).
const (
	ActionIncreaseCPU   = cluster.ActionIncreaseCPU
	ActionDecreaseCPU   = cluster.ActionDecreaseCPU
	ActionAddReplica    = cluster.ActionAddReplica
	ActionRemoveReplica = cluster.ActionRemoveReplica
	ActionMigrate       = cluster.ActionMigrate
	ActionStartHost     = cluster.ActionStartHost
	ActionStopHost      = cluster.ActionStopHost
	// ActionSetDVFS is the §VI future-work extension: host frequency
	// scaling as a lowest-level-controller action.
	ActionSetDVFS = cluster.ActionSetDVFS
	// ActionWANMigrate is the §VI future-work extension: VM migration
	// between data centers, owned by the 3rd hierarchy level.
	ActionWANMigrate = cluster.ActionWANMigrate
)

// Controller types (§IV).
type (
	// Ideal is the Perf-Pwr optimizer's output: the best
	// performance/power configuration ignoring transient costs.
	Ideal = core.Ideal
	// Decision is a strategy's output for one control opportunity.
	Decision = scenario.Decision
	// Decider is a control strategy (Mistral or a baseline).
	Decider = scenario.Decider
	// RunResult is a completed scenario replay.
	RunResult = scenario.Result
	// WindowLog is one monitoring window's record within a RunResult.
	WindowLog = scenario.WindowLog
	// MistralController is the hierarchical Mistral strategy: a Replay's
	// Decider when its Recipe's Strategy is "mistral" or "naive".
	MistralController = strategy.Mistral
)

// Testbed types.
type (
	// Testbed executes adaptation plans against a virtual cluster and
	// measures response times, utilization, and power.
	Testbed = testbed.Testbed
	// TestbedMode selects analytic or request-level fidelity.
	TestbedMode = testbed.Mode
)

// Testbed fidelity modes.
const (
	ModeAnalytic     = testbed.ModeAnalytic
	ModeRequestLevel = testbed.ModeRequestLevel
)
