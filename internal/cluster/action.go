package cluster

import (
	"fmt"
	"strings"
)

// ActionKind enumerates the six adaptation actions of the paper (§III-C).
type ActionKind int

// Adaptation action kinds.
const (
	ActionIncreaseCPU ActionKind = iota + 1
	ActionDecreaseCPU
	ActionAddReplica
	ActionRemoveReplica
	ActionMigrate
	ActionStartHost
	ActionStopHost
	// ActionSetDVFS changes a host's frequency level — the §VI
	// "complementary technique" extension, available to the lowest-level
	// controllers as a near-free power/performance knob.
	ActionSetDVFS
	// ActionWANMigrate moves a VM (memory and disk image) to a host in a
	// different data center — the §VI "migration over WAN" extension,
	// wielded by the top hierarchy level at tens-of-minutes timescales.
	ActionWANMigrate
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case ActionIncreaseCPU:
		return "increase-cpu"
	case ActionDecreaseCPU:
		return "decrease-cpu"
	case ActionAddReplica:
		return "add-replica"
	case ActionRemoveReplica:
		return "remove-replica"
	case ActionMigrate:
		return "migrate"
	case ActionStartHost:
		return "start-host"
	case ActionStopHost:
		return "stop-host"
	case ActionSetDVFS:
		return "set-dvfs"
	case ActionWANMigrate:
		return "wan-migrate"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one adaptation step. Fields are used according to Kind:
//
//   - ActionIncreaseCPU / ActionDecreaseCPU: VM, DeltaCPUPct
//   - ActionAddReplica: VM (the dormant replica), Host (target), CPUPct
//     (initial allocation; catalog minimum if zero)
//   - ActionRemoveReplica: VM
//   - ActionMigrate: VM, Host (destination); FromHost is filled by Apply
//   - ActionStartHost / ActionStopHost: Host
//   - ActionSetDVFS: Host, Freq (target frequency fraction)
type Action struct {
	Kind        ActionKind
	VM          VMID
	Host        string
	FromHost    string
	DeltaCPUPct float64
	CPUPct      float64
	Freq        float64
}

// String renders a human-readable description.
func (a Action) String() string {
	switch a.Kind {
	case ActionIncreaseCPU:
		return fmt.Sprintf("increase-cpu %s +%.0f%%", a.VM, a.DeltaCPUPct)
	case ActionDecreaseCPU:
		return fmt.Sprintf("decrease-cpu %s -%.0f%%", a.VM, a.DeltaCPUPct)
	case ActionAddReplica:
		return fmt.Sprintf("add-replica %s -> %s", a.VM, a.Host)
	case ActionRemoveReplica:
		return fmt.Sprintf("remove-replica %s", a.VM)
	case ActionMigrate:
		if a.FromHost != "" {
			return fmt.Sprintf("migrate %s %s -> %s", a.VM, a.FromHost, a.Host)
		}
		return fmt.Sprintf("migrate %s -> %s", a.VM, a.Host)
	case ActionStartHost:
		return fmt.Sprintf("start-host %s", a.Host)
	case ActionStopHost:
		return fmt.Sprintf("stop-host %s", a.Host)
	case ActionSetDVFS:
		return fmt.Sprintf("set-dvfs %s %.0f%%", a.Host, a.Freq*100)
	case ActionWANMigrate:
		if a.FromHost != "" {
			return fmt.Sprintf("wan-migrate %s %s -> %s", a.VM, a.FromHost, a.Host)
		}
		return fmt.Sprintf("wan-migrate %s -> %s", a.VM, a.Host)
	default:
		return fmt.Sprintf("unknown-action(%d)", int(a.Kind))
	}
}

// PlanString renders an action sequence as a single line.
func PlanString(plan []Action) string {
	if len(plan) == 0 {
		return "(no-op)"
	}
	parts := make([]string, len(plan))
	for i, a := range plan {
		parts[i] = a.String()
	}
	return strings.Join(parts, "; ")
}

// Stage validates the action against cfg and returns the filled-in Action
// plus the Delta it would make, without cloning or mutating anything. It
// enforces action *feasibility* (the action must make sense in cfg: e.g. a
// migrated VM must be active and the destination powered on) but not
// candidate constraints: the delta may lead to an intermediate configuration
// that oversubscribes a host, as the paper's search deliberately allows.
// The returned Action is what the input names with the derived fields
// (Host of a CPU change, FromHost, CPUPct, a defaulted DeltaCPUPct) filled in
// for cost accounting.
//
// The rules themselves live in View.stage, shared with the generator
// (View.Expand) that stages every action of a configuration off one loaded
// view; Stage loads just the entries its one action reads and renders the
// staged action back into names.
func Stage(cat *Catalog, cfg Config, a Action) (Action, Delta, error) {
	vm, host, _ := cat.ActionIndices(a)
	v := viewPool.Get().(*View)
	defer viewPool.Put(v)
	if !v.loadFor(cat, cfg, a.Kind, vm, host) {
		return a, Delta{}, fmt.Errorf("cluster: %s: VM %q is placed on a host outside the catalog", a.Kind, a.VM)
	}
	s := Staged{Kind: a.Kind, VM: int32(vm), Host: int32(host), DeltaCPU: a.DeltaCPUPct, NewCPU: a.CPUPct, Freq: a.Freq}
	if why := v.stage(&s); why != feasible {
		a.DeltaCPUPct = s.DeltaCPU // a CPU change's step is defaulted before it is judged
		return a, Delta{}, v.refusalError(why, a, vm, host)
	}
	return s.Action(cat), s.Delta(cat), nil
}

// Apply executes the action on cfg and returns the resulting configuration.
// It is Stage followed by a deep clone and the staged delta.
func Apply(cat *Catalog, cfg Config, a Action) (Config, Action, error) {
	filled, d, err := Stage(cat, cfg, a)
	if err != nil {
		return Config{}, filled, err
	}
	n := cfg.Clone()
	n.ApplyDelta(d)
	return n, filled, nil
}

// ApplyAll applies a sequence of actions, returning the final configuration
// and the sequence with derived fields filled in. cfg is never written: the
// first step copies it once and every step applies to that copy in place.
func ApplyAll(cat *Catalog, cfg Config, plan []Action) (Config, []Action, error) {
	out := make([]Action, 0, len(plan))
	cur := cfg
	for i, a := range plan {
		filled, d, err := Stage(cat, cur, a)
		if err != nil {
			return Config{}, nil, fmt.Errorf("cluster: applying step %d (%s): %w", i, a, err)
		}
		if i == 0 {
			cur = cfg.Clone()
		}
		cur.ApplyDelta(d)
		out = append(out, filled)
	}
	return cur, out, nil
}

// ActionSpace restricts which actions Enumerate generates. The zero value
// allows everything on all hosts and VMs.
type ActionSpace struct {
	// Kinds restricts the generated action kinds; empty means all six.
	Kinds []ActionKind
	// Hosts restricts target hosts (migration destinations, replica
	// targets, power cycling) and the VMs considered (only VMs currently
	// placed within Hosts); empty means all hosts.
	Hosts []string
	// AppPools confines each application's VMs to a fixed host pool (the
	// Perf-Cost baseline's "2 hosts per application"): migrations and
	// replica additions for a pooled app only target its pool. Apps absent
	// from the map are unconstrained.
	AppPools map[string][]string
}

// Enumerate generates every feasible single action from cfg within the
// action space, in the form a caller would write them (derived fields
// unfilled). The result is deterministic: VMs, then hosts, in catalog order.
// It is View.Expand for callers that hold a Config and want the actions
// only.
func Enumerate(cat *Catalog, cfg Config, space ActionSpace) []Action {
	v := viewPool.Get().(*View)
	defer viewPool.Put(v)
	if !v.Load(cat, cfg) {
		return nil
	}
	moves := space.Resolve(cat)
	staged := v.Expand(&moves, nil)
	if len(staged) == 0 {
		return nil
	}
	out := make([]Action, len(staged))
	for i := range staged {
		out[i] = unfilled(staged[i].Action(cat))
	}
	return out
}

// unfilled strips the fields stage derives from the configuration, leaving
// the action as Expand proposed it.
func unfilled(a Action) Action {
	switch a.Kind {
	case ActionIncreaseCPU, ActionDecreaseCPU:
		a.Host = ""
	case ActionRemoveReplica:
		a.FromHost = ""
	case ActionMigrate, ActionWANMigrate:
		a.FromHost, a.CPUPct = "", 0
	}
	return a
}

// Inverse synthesizes the compensating action that undoes a previously
// applied (filled) action, given the configuration the action was applied
// to. The inverse of a filled inverse round-trips: applying the action and
// then its inverse restores the original configuration and fingerprint.
// The returned action has its derived fields (FromHost, CPUPct, Freq)
// filled directly from the forward action and the pre-step configuration,
// so callers may cost or record it without staging it again.
func Inverse(filled Action, before Config) (Action, error) {
	switch filled.Kind {
	case ActionIncreaseCPU:
		return Action{Kind: ActionDecreaseCPU, VM: filled.VM, Host: filled.Host, DeltaCPUPct: filled.DeltaCPUPct}, nil
	case ActionDecreaseCPU:
		return Action{Kind: ActionIncreaseCPU, VM: filled.VM, Host: filled.Host, DeltaCPUPct: filled.DeltaCPUPct}, nil
	case ActionAddReplica:
		return Action{Kind: ActionRemoveReplica, VM: filled.VM, FromHost: filled.Host}, nil
	case ActionRemoveReplica:
		p, ok := before.PlacementOf(filled.VM)
		if !ok {
			return Action{}, fmt.Errorf("cluster: inverse of remove-replica %s: VM not placed in pre-step config", filled.VM)
		}
		return Action{Kind: ActionAddReplica, VM: filled.VM, Host: p.Host, CPUPct: p.CPUPct}, nil
	case ActionMigrate:
		return Action{Kind: ActionMigrate, VM: filled.VM, Host: filled.FromHost, FromHost: filled.Host, CPUPct: filled.CPUPct}, nil
	case ActionWANMigrate:
		return Action{Kind: ActionWANMigrate, VM: filled.VM, Host: filled.FromHost, FromHost: filled.Host, CPUPct: filled.CPUPct}, nil
	case ActionStartHost:
		return Action{Kind: ActionStopHost, Host: filled.Host}, nil
	case ActionStopHost:
		return Action{Kind: ActionStartHost, Host: filled.Host}, nil
	case ActionSetDVFS:
		return Action{Kind: ActionSetDVFS, Host: filled.Host, Freq: before.HostFreq(filled.Host)}, nil
	}
	return Action{}, fmt.Errorf("cluster: no inverse for action kind %v", filled.Kind)
}
