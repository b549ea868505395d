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
//	sys, err := mistral.NewSystem(mistral.SystemOptions{NumApps: 2})
//	if err != nil { ... }
//	ctrl, err := sys.NewMistral(mistral.ControllerOptions{})
//	if err != nil { ... }
//	result, err := sys.Replay(ctrl, nil) // nil: the paper's Fig. 4 traces
//	if err != nil { ... }
//	fmt.Printf("cumulative utility: %.1f\n", result.CumUtility)
//
// The experiment drivers that regenerate the paper's tables and figures
// live in this package as RunFig1 … RunTable1; the cmd/mistral-exp binary
// renders them all.
package mistral

import (
	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/utility"
	"github.com/mistralcloud/mistral/internal/workload"
)

// Infrastructure model types.
type (
	// HostSpec describes a physical machine (capacity, memory, power
	// model, boot/shutdown costs).
	HostSpec = cluster.HostSpec
	// VMSpec describes a virtual machine hosting one tier replica.
	VMSpec = cluster.VMSpec
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
	// ActionSpace restricts the actions a controller may use.
	ActionSpace = cluster.ActionSpace
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

// Application model types.
type (
	// AppSpec models a multi-tier application with a transaction mix.
	AppSpec = app.Spec
	// TierSpec is one tier of an application.
	TierSpec = app.TierSpec
	// TxnSpec is one transaction type.
	TxnSpec = app.TxnSpec
)

// Utility model types (§II-B).
type (
	// UtilityParams prices performance and power (Eqs. 1–3).
	UtilityParams = utility.Params
	// AppUtility is one application's performance objective.
	AppUtility = utility.AppParams
)

// Workload types.
type (
	// Trace is a request-rate time series.
	Trace = workload.Trace
	// WorkloadSet maps application names to traces.
	WorkloadSet = workload.Set
)

// Cost model types (§III-C).
type (
	// CostTable holds per-action transient cost entries indexed by
	// workload.
	CostTable = cost.Table
	// CostEntry is one measured cost point.
	CostEntry = cost.Entry
)

// Controller types (§IV).
type (
	// SearchOptions tunes the A* adaptation search (naive or Self-Aware).
	SearchOptions = core.SearchOptions
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
	// MistralController is the hierarchical Mistral strategy.
	MistralController = strategy.Mistral
)

// Testbed types.
type (
	// Testbed executes adaptation plans against a virtual cluster and
	// measures response times, utilization, and power.
	Testbed = testbed.Testbed
	// TestbedOptions tunes testbed fidelity and noise.
	TestbedOptions = testbed.Options
	// TestbedMode selects analytic or request-level fidelity.
	TestbedMode = testbed.Mode
)

// Testbed fidelity modes.
const (
	ModeAnalytic     = testbed.ModeAnalytic
	ModeRequestLevel = testbed.ModeRequestLevel
)

// RUBiS returns the paper's three-tier auction application with the
// browse-only transaction mix.
func RUBiS(name string) *AppSpec { return app.RUBiS(name) }

// DefaultHostSpec returns a host matching the paper's testbed machines.
func DefaultHostSpec(name string) HostSpec { return cluster.DefaultHostSpec(name) }

// PaperCostTable returns the adaptation-cost tables anchored to Fig. 7 and
// §V-B.
func PaperCostTable() *CostTable { return cost.PaperTable() }

// PaperUtility returns the evaluation's utility settings (§V-A): 2-minute
// monitoring interval, $0.01 per watt-interval, 400 ms targets with the
// Fig. 3 reward/penalty curves.
func PaperUtility(appNames []string) *UtilityParams { return utility.PaperParams(appNames) }

// PaperWorkloads returns the Fig. 4 workload set for the given application
// names (World Cup shapes for the first two, HP shapes for the next two).
func PaperWorkloads(seed uint64, appNames []string) WorkloadSet {
	return workload.PaperWorkloads(seed, appNames)
}

// Experiment re-exports: each Run* regenerates one of the paper's tables
// or figures; see EXPERIMENTS.md for expected outputs.
type (
	// ExperimentTable is a renderable tabular experiment result.
	ExperimentTable = experiments.Table
	// Lab is an assembled reproduction environment.
	Lab = experiments.Lab
	// LabOptions configures a Lab.
	LabOptions = experiments.LabOptions
)

// NewLab assembles a reproduction environment (catalog, calibrated
// applications, workloads, utility and cost models).
func NewLab(opts LabOptions) (*Lab, error) { return experiments.NewLab(opts) }

// RunFig1 regenerates Fig. 1 (live-migration transients).
func RunFig1(seed uint64) (*experiments.Fig1Result, error) {
	return experiments.Fig1MigrationCost(seed)
}

// RunFig3 regenerates Fig. 3 (the performance utility function).
func RunFig3() []experiments.Fig3Point { return experiments.Fig3UtilityFunction() }

// RunFig4 regenerates Fig. 4 (the application workloads).
func RunFig4(seed uint64) *experiments.Fig4Result { return experiments.Fig4Workloads(seed) }

// RunFig5 regenerates Fig. 5 (model validation against the request-level
// testbed).
func RunFig5(seed uint64) (*experiments.Fig5Result, error) {
	return experiments.Fig5ModelAccuracy(seed)
}

// RunFig6 regenerates Fig. 6 (stability-interval estimation accuracy).
func RunFig6(seed uint64) *experiments.Fig6Result {
	return experiments.Fig6StabilityEstimation(seed)
}

// RunFig7 regenerates Fig. 7 (the adaptation-cost tables).
func RunFig7() []experiments.Fig7Row { return experiments.Fig7AdaptationCosts() }

// RunFig7Measured reruns the §III-C offline cost-measurement campaign on
// the request-level testbed.
func RunFig7Measured(seed uint64, trials int) ([]experiments.Fig7Row, error) {
	return experiments.Fig7MeasuredCampaign(seed, trials)
}

// MeasureCostTable runs the full offline campaign and assembles a cost
// table usable anywhere PaperCostTable is: the closed measure-offline /
// consult-at-runtime loop of §III-C.
func MeasureCostTable(seed uint64, trials int) (*CostTable, error) {
	return experiments.MeasuredCostTable(seed, trials, nil)
}

// RunFig89 regenerates Figs. 8–9 (the four-strategy comparison).
func RunFig89(seed uint64) (*experiments.Fig89Result, error) {
	return experiments.Fig89StrategyComparison(seed)
}

// RunFig10 regenerates Fig. 10 (the cost of the search itself).
func RunFig10(seed uint64) (*experiments.Fig10Result, error) {
	return experiments.Fig10SearchCost(seed)
}

// RunTable1 regenerates Table I (scalability of the search).
func RunTable1(seed uint64, opts experiments.Table1Options) (*experiments.Table1Result, error) {
	return experiments.Table1Scalability(seed, opts)
}

// RunFaultSweep runs the robustness study beyond the paper: the four
// strategies replayed from base under seeded fault injection (failed and
// delayed actions, host crashes, sensor dropouts) at each configured rate.
func RunFaultSweep(base experiments.Recipe, opts experiments.SweepOptions) (*experiments.FaultSweepResult, error) {
	return experiments.FaultSweep(base, opts)
}

// RunChaosSweep runs the transactional-robustness study: Mistral replayed
// under the combined chaos profile (simultaneous crashes, failures, and
// delays, mostly non-retryable) with the admission guard enabled, under
// both execution policies, asserting the safety invariants every window.
func RunChaosSweep(base experiments.Recipe, opts experiments.SweepOptions) (*experiments.ChaosSweepResult, error) {
	return experiments.ChaosSweep(base, opts)
}
