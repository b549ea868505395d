package cluster

import "fmt"

// The feasibility rules and the action enumeration as they were before
// View.stage and View.Expand replaced them — string-keyed map reads, one
// formatted error per infeasible proposal — kept as the reference the
// differential tests compare the view path against.

// referenceStage is Stage as it was.
func referenceStage(cat *Catalog, cfg Config, a Action) (Action, Delta, error) {
	switch a.Kind {
	case ActionIncreaseCPU:
		p, ok := cfg.PlacementOf(a.VM)
		if !ok {
			return a, Delta{}, fmt.Errorf("cluster: increase-cpu: VM %q not active", a.VM)
		}
		delta := a.DeltaCPUPct
		if delta <= 0 {
			delta = cat.CPUStepPct
			a.DeltaCPUPct = delta
		}
		spec, _ := cat.Host(p.Host)
		if p.CPUPct+delta > spec.UsableCPUPct+1e-9 {
			return a, Delta{}, fmt.Errorf("cluster: increase-cpu: VM %q would exceed host usable capacity (%.1f+%.1f > %.1f)", a.VM, p.CPUPct, delta, spec.UsableCPUPct)
		}
		a.Host = p.Host
		return a, Delta{VM: a.VM, OldPlaced: true, Old: p, NewPlaced: true, New: Placement{Host: p.Host, CPUPct: p.CPUPct + delta}}, nil

	case ActionDecreaseCPU:
		p, ok := cfg.PlacementOf(a.VM)
		if !ok {
			return a, Delta{}, fmt.Errorf("cluster: decrease-cpu: VM %q not active", a.VM)
		}
		delta := a.DeltaCPUPct
		if delta <= 0 {
			delta = cat.CPUStepPct
			a.DeltaCPUPct = delta
		}
		if p.CPUPct-delta < cat.MinCPUPct-1e-9 {
			return a, Delta{}, fmt.Errorf("cluster: decrease-cpu: VM %q would fall below minimum (%.1f-%.1f < %.1f)", a.VM, p.CPUPct, delta, cat.MinCPUPct)
		}
		a.Host = p.Host
		return a, Delta{VM: a.VM, OldPlaced: true, Old: p, NewPlaced: true, New: Placement{Host: p.Host, CPUPct: p.CPUPct - delta}}, nil

	case ActionAddReplica:
		if _, ok := cat.VM(a.VM); !ok {
			return a, Delta{}, fmt.Errorf("cluster: add-replica: unknown VM %q", a.VM)
		}
		if cfg.Active(a.VM) {
			return a, Delta{}, fmt.Errorf("cluster: add-replica: VM %q already active", a.VM)
		}
		if _, ok := cat.Host(a.Host); !ok {
			return a, Delta{}, fmt.Errorf("cluster: add-replica: unknown host %q", a.Host)
		}
		if !cfg.HostOn(a.Host) {
			return a, Delta{}, fmt.Errorf("cluster: add-replica: host %q is off", a.Host)
		}
		cpu := a.CPUPct
		if cpu <= 0 {
			cpu = cat.MinCPUPct
			a.CPUPct = cpu
		}
		return a, Delta{VM: a.VM, NewPlaced: true, New: Placement{Host: a.Host, CPUPct: cpu}}, nil

	case ActionRemoveReplica:
		vm, ok := cat.VM(a.VM)
		if !ok {
			return a, Delta{}, fmt.Errorf("cluster: remove-replica: unknown VM %q", a.VM)
		}
		p, active := cfg.PlacementOf(a.VM)
		if !active {
			return a, Delta{}, fmt.Errorf("cluster: remove-replica: VM %q not active", a.VM)
		}
		k := TierKey{App: vm.App, Tier: vm.Tier}
		if cat.TierRequired(k) && len(cfg.ActiveReplicas(cat, k)) <= 1 {
			return a, Delta{}, fmt.Errorf("cluster: remove-replica: VM %q is the last replica of required tier %s/%s", a.VM, k.App, k.Tier)
		}
		a.FromHost = p.Host
		return a, Delta{VM: a.VM, OldPlaced: true, Old: p}, nil

	case ActionMigrate, ActionWANMigrate:
		p, ok := cfg.PlacementOf(a.VM)
		if !ok {
			return a, Delta{}, fmt.Errorf("cluster: %s: VM %q not active", a.Kind, a.VM)
		}
		if _, ok := cat.Host(a.Host); !ok {
			return a, Delta{}, fmt.Errorf("cluster: %s: unknown host %q", a.Kind, a.Host)
		}
		if a.Host == p.Host {
			return a, Delta{}, fmt.Errorf("cluster: %s: VM %q already on host %q", a.Kind, a.VM, a.Host)
		}
		if !cfg.HostOn(a.Host) {
			return a, Delta{}, fmt.Errorf("cluster: %s: destination host %q is off", a.Kind, a.Host)
		}
		sameZone := cat.ZoneOf(p.Host) == cat.ZoneOf(a.Host)
		if a.Kind == ActionMigrate && !sameZone {
			return a, Delta{}, fmt.Errorf("cluster: migrate: %q and %q are in different zones; use wan-migrate", p.Host, a.Host)
		}
		if a.Kind == ActionWANMigrate && sameZone {
			return a, Delta{}, fmt.Errorf("cluster: wan-migrate: %q and %q share a zone; use migrate", p.Host, a.Host)
		}
		a.FromHost = p.Host
		a.CPUPct = p.CPUPct
		return a, Delta{VM: a.VM, OldPlaced: true, Old: p, NewPlaced: true, New: Placement{Host: a.Host, CPUPct: p.CPUPct}}, nil

	case ActionStartHost:
		if _, ok := cat.Host(a.Host); !ok {
			return a, Delta{}, fmt.Errorf("cluster: start-host: unknown host %q", a.Host)
		}
		if cfg.HostOn(a.Host) {
			return a, Delta{}, fmt.Errorf("cluster: start-host: host %q already on", a.Host)
		}
		return a, Delta{Host: a.Host, On: true}, nil

	case ActionStopHost:
		if _, ok := cat.Host(a.Host); !ok {
			return a, Delta{}, fmt.Errorf("cluster: stop-host: unknown host %q", a.Host)
		}
		if !cfg.HostOn(a.Host) {
			return a, Delta{}, fmt.Errorf("cluster: stop-host: host %q already off", a.Host)
		}
		if n := cfg.VMsOnHost(a.Host); len(n) > 0 {
			return a, Delta{}, fmt.Errorf("cluster: stop-host: host %q still has %d VMs", a.Host, len(n))
		}
		return a, Delta{Host: a.Host, On: false}, nil

	case ActionSetDVFS:
		spec, ok := cat.Host(a.Host)
		if !ok {
			return a, Delta{}, fmt.Errorf("cluster: set-dvfs: unknown host %q", a.Host)
		}
		if !cfg.HostOn(a.Host) {
			return a, Delta{}, fmt.Errorf("cluster: set-dvfs: host %q is off", a.Host)
		}
		if !spec.HasDVFSLevel(a.Freq) {
			return a, Delta{}, fmt.Errorf("cluster: set-dvfs: host %q has no level %v", a.Host, a.Freq)
		}
		if cfg.HostFreq(a.Host) == a.Freq {
			return a, Delta{}, fmt.Errorf("cluster: set-dvfs: host %q already at %v", a.Host, a.Freq)
		}
		return a, Delta{FreqHost: a.Host, NewFreq: a.Freq}, nil

	default:
		return a, Delta{}, fmt.Errorf("cluster: unknown action kind %d", int(a.Kind))
	}
}

func refAllowsKind(s ActionSpace, k ActionKind) bool {
	if len(s.Kinds) == 0 {
		return true
	}
	for _, allowed := range s.Kinds {
		if allowed == k {
			return true
		}
	}
	return false
}

func refHostSet(s ActionSpace) map[string]bool {
	if len(s.Hosts) == 0 {
		return nil
	}
	set := make(map[string]bool, len(s.Hosts))
	for _, h := range s.Hosts {
		set[h] = true
	}
	return set
}

// allowsAppHost reports whether app may use host under the pools.
func refAllowsAppHost(s ActionSpace, appName, host string) bool {
	pool, pooled := s.AppPools[appName]
	if !pooled {
		return true
	}
	for _, h := range pool {
		if h == host {
			return true
		}
	}
	return false
}

// referenceEnumerate is Enumerate as it was: propose from the Config's maps,
// filter by attempting referenceStage.
func referenceEnumerate(cat *Catalog, cfg Config, space ActionSpace) []Action {
	hosts := refHostSet(space)
	inScope := func(h string) bool { return hosts == nil || hosts[h] }

	var out []Action
	tryAppend := func(a Action) {
		if _, _, err := referenceStage(cat, cfg, a); err == nil {
			out = append(out, a)
		}
	}

	for _, id := range cat.VMIDs() {
		p, active := cfg.PlacementOf(id)
		if active && !inScope(p.Host) {
			continue
		}
		if active {
			if refAllowsKind(space, ActionIncreaseCPU) {
				tryAppend(Action{Kind: ActionIncreaseCPU, VM: id, DeltaCPUPct: cat.CPUStepPct})
			}
			if refAllowsKind(space, ActionDecreaseCPU) {
				tryAppend(Action{Kind: ActionDecreaseCPU, VM: id, DeltaCPUPct: cat.CPUStepPct})
			}
			if refAllowsKind(space, ActionMigrate) || refAllowsKind(space, ActionWANMigrate) {
				vm, _ := cat.VM(id)
				srcZone := cat.ZoneOf(p.Host)
				for _, h := range cat.HostNames() {
					if h == p.Host || !inScope(h) || !cfg.HostOn(h) || !refAllowsAppHost(space, vm.App, h) {
						continue
					}
					kind := ActionMigrate
					if cat.ZoneOf(h) != srcZone {
						kind = ActionWANMigrate
					}
					if refAllowsKind(space, kind) {
						tryAppend(Action{Kind: kind, VM: id, Host: h})
					}
				}
			}
			if refAllowsKind(space, ActionRemoveReplica) {
				tryAppend(Action{Kind: ActionRemoveReplica, VM: id})
			}
		} else if refAllowsKind(space, ActionAddReplica) {
			vm, _ := cat.VM(id)
			for _, h := range cat.HostNames() {
				if !inScope(h) || !cfg.HostOn(h) || !refAllowsAppHost(space, vm.App, h) {
					continue
				}
				tryAppend(Action{Kind: ActionAddReplica, VM: id, Host: h, CPUPct: cat.MinCPUPct})
			}
		}
	}
	for _, h := range cat.HostNames() {
		if !inScope(h) {
			continue
		}
		if cfg.HostOn(h) {
			if refAllowsKind(space, ActionStopHost) {
				tryAppend(Action{Kind: ActionStopHost, Host: h})
			}
			if refAllowsKind(space, ActionSetDVFS) {
				spec, _ := cat.Host(h)
				hasNominal := false
				for _, f := range spec.DVFSLevels {
					if f == 1 {
						hasNominal = true
					}
					if f != cfg.HostFreq(h) {
						tryAppend(Action{Kind: ActionSetDVFS, Host: h, Freq: f})
					}
				}
				// Returning to nominal speed is always available.
				if !hasNominal && spec.SupportsDVFS() && cfg.HostFreq(h) != 1 {
					tryAppend(Action{Kind: ActionSetDVFS, Host: h, Freq: 1})
				}
			}
		} else if refAllowsKind(space, ActionStartHost) {
			tryAppend(Action{Kind: ActionStartHost, Host: h})
		}
	}
	return out
}
