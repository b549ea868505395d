package cluster

import (
	"fmt"
	"sync"
)

// Dormant is the View host index of a VM that is not placed.
const Dormant = -1

// View is a dense, catalog-indexed, pointer-free picture of one Config: the
// per-VM and per-host state in Catalog.VMIDs / Catalog.HostNames order, plus
// the per-host and per-tier aggregates every feasibility rule, constraint
// check and co-location scan needs. Loading one reads the configuration's
// string-keyed maps once; everything that then looks at many single-action
// neighbours of the configuration — the action generator, the candidate
// test, the search's child pricing — reads arrays, and LoadStaged loads a
// neighbour from them without reading a map at all.
//
// A View is scratch: Load overwrites it, it aliases nothing in the Config,
// and it is never serialised (Config stays the only serialised
// representation; the search keeps copies of the four per-VM and per-host
// arrays for LoadStaged, nothing more). The zero value is ready to Load.
type View struct {
	cat *Catalog

	// Per VM: host index (Dormant when not placed) and CPU allocation.
	VMHost []int32
	VMCPU  []float64
	// Per host: power state and DVFS fraction (1 = nominal).
	HostOn   []bool
	HostFreq []float64
	// Per host, over the VMs placed there: allocated CPU (folded in sorted
	// VM order, as Config.AllocatedCPU does), memory and VM count.
	HostCPU []float64
	HostMem []int
	HostVMs []int32
	// Per tier, in Catalog.Tiers order: active replicas.
	TierActive []int32
	// hostApps counts, per host and application (row-major by host), the
	// VMs of that application placed on the host.
	hostApps []int32
}

// viewPool backs the entry points that take a Config (Stage, Apply,
// Enumerate), which load a view for one call; the search owns its own.
var viewPool = sync.Pool{New: func() any { return new(View) }}

// resize returns s with length n and every element zero.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// size readies the arrays for cat, zeroed.
func (v *View) size(cat *Catalog) {
	nh := len(cat.hostNames)
	v.cat = cat
	v.VMHost = resize(v.VMHost, len(cat.vmIDs))
	v.VMCPU = resize(v.VMCPU, len(cat.vmIDs))
	v.HostOn = resize(v.HostOn, nh)
	v.HostFreq = resize(v.HostFreq, nh)
	v.HostCPU = resize(v.HostCPU, nh)
	v.HostMem = resize(v.HostMem, nh)
	v.HostVMs = resize(v.HostVMs, nh)
	v.TierActive = resize(v.TierActive, len(cat.tiers))
	v.hostApps = resize(v.hostApps, nh*len(cat.apps))
}

// Load fills the view from cfg. It reports whether cfg fits the catalog —
// every placed VM, every host it is placed on, and every host with a power
// or DVFS entry is cataloged. A view of a configuration that does not fit
// holds only the part that does and must not be used to judge it.
func (v *View) Load(cat *Catalog, cfg Config) bool {
	v.size(cat)
	fits := true
	placed := 0
	for i, id := range cat.vmIDs {
		v.VMHost[i] = Dormant
		p, ok := cfg.placements[id]
		if !ok {
			continue
		}
		placed++
		h, known := cat.hostIdx[p.Host]
		if !known {
			fits = false
			continue
		}
		v.VMHost[i] = int32(h)
		v.VMCPU[i] = p.CPUPct
	}
	if placed != len(cfg.placements) {
		fits = false
	}
	on, scaled := 0, 0
	for h, name := range cat.hostNames {
		if cfg.hostOn[name] {
			v.HostOn[h] = true
			on++
		}
		f, ok := cfg.hostFreq[name]
		if ok {
			scaled++
		} else {
			f = 1
		}
		v.HostFreq[h] = f
	}
	if on != cfg.NumActiveHosts() || scaled != len(cfg.hostFreq) {
		fits = false
	}
	v.derive()
	return fits
}

// LoadStaged fills the view with the configuration the staged action s makes
// of another, given as that configuration's VMHost, VMCPU, HostOn and
// HostFreq arrays (a loaded view's, or copies of them) from which s was
// staged. No map is read: the arrays are copied, the one entry s changes is
// written, and the aggregates are folded as Load folds them, so the view is
// Load of the applied configuration, every array bit for bit.
func (v *View) LoadStaged(cat *Catalog, vmHost []int32, vmCPU []float64, hostOn []bool, hostFreq []float64, s *Staged) {
	v.size(cat)
	copy(v.VMHost, vmHost)
	copy(v.VMCPU, vmCPU)
	copy(v.HostOn, hostOn)
	copy(v.HostFreq, hostFreq)
	switch s.Kind {
	case ActionStartHost, ActionStopHost:
		v.HostOn[s.Host] = s.Kind == ActionStartHost
	case ActionSetDVFS:
		v.HostFreq[s.Host] = s.Freq
	default:
		v.VMHost[s.VM], v.VMCPU[s.VM] = s.NewHost, s.NewCPU
	}
	v.derive()
}

// derive folds the per-host and per-tier aggregates from the per-VM arrays
// of a freshly sized view, over the VMs in catalog (sorted) order: the one
// fold Load and LoadStaged share.
func (v *View) derive() {
	cat := v.cat
	na := len(cat.apps)
	for i, h := range v.VMHost {
		if h < 0 {
			continue
		}
		v.HostCPU[h] += v.VMCPU[i]
		v.HostMem[h] += cat.vmMem[i]
		v.HostVMs[h]++
		v.TierActive[cat.vmTier[i]]++
		v.hostApps[int(h)*na+int(cat.vmApp[i])]++
	}
}

// Place puts the vm-th VM on the host-th host at cpuPct, or takes it out of
// service with host Dormant, in the loaded configuration, and SetHostOn
// powers the host-th host on or off. Each returns fp, the fingerprint of the
// configuration before the change, updated as the Config mutator of the same
// name (Unplace for Dormant) updates its own, and leaves the view Load of the
// changed configuration, every array bit for bit: the host aggregates are
// refolded in VM order. Build a configuration in a view with them where
// nothing but the solver and the memo key read it.
func (v *View) Place(fp Fingerprint, vm, host int, cpuPct float64) Fingerprint {
	cat := v.cat
	row := cat.tokPlace[vm*len(cat.hostNames):]
	old := v.VMHost[vm]
	if old >= 0 {
		fp.xor(row[old].int64(cpuBucket(v.VMCPU[vm])).fingerprint())
	}
	if host < 0 {
		host, cpuPct = Dormant, 0
	} else {
		fp.xor(row[host].int64(cpuBucket(cpuPct)).fingerprint())
	}
	v.VMHost[vm], v.VMCPU[vm] = int32(host), cpuPct
	if old >= 0 {
		v.count(vm, old, -1)
	}
	if host >= 0 {
		v.count(vm, int32(host), 1)
	}
	return fp
}

// SetHostOn: see Place.
func (v *View) SetHostOn(fp Fingerprint, host int, on bool) Fingerprint {
	if v.HostOn[host] != on {
		v.HostOn[host] = on
		fp.xor(v.cat.tokOn[host])
	}
	return fp
}

// count adds the vm-th VM to the host-th host's aggregates (n = 1) or takes
// it off them (n = -1), once the VM's entries say where it now is, and
// refolds the host's allocated CPU as derive folds it.
func (v *View) count(vm int, host int32, n int32) {
	cat := v.cat
	v.HostMem[host] += int(n) * cat.vmMem[vm]
	v.HostVMs[host] += n
	v.TierActive[cat.vmTier[vm]] += n
	v.hostApps[int(host)*len(cat.apps)+int(cat.vmApp[vm])] += n
	var sum float64
	for i, h := range v.VMHost {
		if h == host {
			sum += v.VMCPU[i]
		}
	}
	v.HostCPU[host] = sum
}

// loadFor fills only the entries stage reads to judge one action — of the
// given kind, on the vm-th VM and the host-th host (-1: none) — so that
// staging a single action costs a handful of map reads, as it always did,
// instead of a full Load: the VM's placement, the host's power state and
// DVFS level, the host's VM count for a stop, the tier's active replicas for
// a removal. It reports false when the VM sits on a host outside the
// catalog, which the arrays cannot express.
func (v *View) loadFor(cat *Catalog, cfg Config, kind ActionKind, vm, host int) bool {
	v.size(cat)
	if vm >= 0 {
		v.VMHost[vm] = Dormant
		if p, ok := cfg.placements[cat.vmIDs[vm]]; ok {
			h, known := cat.hostIdx[p.Host]
			if !known {
				return false
			}
			v.VMHost[vm] = int32(h)
			v.VMCPU[vm] = p.CPUPct
		}
	}
	if host >= 0 {
		name := cat.hostNames[host]
		v.HostOn[host] = cfg.hostOn[name]
		v.HostFreq[host] = cfg.HostFreq(name)
		if kind == ActionStopHost {
			for _, p := range cfg.placements {
				if p.Host == name {
					v.HostVMs[host]++
				}
			}
		}
	}
	if kind == ActionRemoveReplica && vm >= 0 {
		t := cat.vmTier[vm]
		for _, id := range cat.byTier[cat.tiers[t]] {
			if _, ok := cfg.placements[id]; ok {
				v.TierActive[t]++
			}
		}
	}
	return true
}

// AppOnHost reports whether any VM of the application (an index into
// Catalog.Apps) is placed on the host.
func (v *View) AppOnHost(host, app int) bool {
	return v.hostApps[host*len(v.cat.apps)+app] > 0
}

// Candidate reports whether the loaded configuration satisfies every
// allocation constraint — Config.IsCandidate read off the arrays, without
// describing what is violated. The view must fit the catalog.
func (v *View) Candidate() bool {
	cat := v.cat
	for i, h := range v.VMHost {
		if h < 0 {
			continue
		}
		cpu := v.VMCPU[i]
		if !v.HostOn[h] || cpu < cat.MinCPUPct-1e-9 || cpu > cat.hostSpecs[h].UsableCPUPct+1e-9 {
			return false
		}
	}
	for h := range cat.hostSpecs {
		spec := &cat.hostSpecs[h]
		if v.HostVMs[h] > 0 && (v.HostCPU[h] > spec.UsableCPUPct+1e-9 ||
			v.HostMem[h]+spec.Dom0MemoryMB > spec.MemoryMB ||
			int(v.HostVMs[h]) > spec.MaxVMs) {
			return false
		}
		if !spec.HasDVFSLevel(v.HostFreq[h]) {
			return false
		}
	}
	for t, required := range cat.tierRequired {
		if required && v.TierActive[t] == 0 {
			return false
		}
	}
	return true
}

// Staged is the index form of one feasible action and nothing else: its
// kind, the catalog indices of what it names, its numeric parameters and the
// change it makes. It holds no pointer, so a search can keep one per frontier
// vertex without giving the collector anything to scan; Action and Delta
// render the named forms wherever names are needed (Stage, Apply, Enumerate
// and the search's plan reconstruction).
type Staged struct {
	Kind ActionKind
	// VM and Host are the catalog indices of the filled action's VM and
	// Host, -1 where it names none: Host is the target of an addition, a
	// migration, a power or a DVFS change, the VM's own host for a CPU
	// change, and -1 for a removal.
	VM, Host int32
	// OldHost and NewHost are where the VM sits before and after the action
	// (Dormant: not placed; both Dormant when the action names no VM), and
	// OldCPU and NewCPU its allocation there (0 while dormant).
	OldHost, NewHost int32
	OldCPU, NewCPU   float64
	// DeltaCPU is the step of a CPU change, Freq the level a set-dvfs
	// selects; zero for every other kind.
	DeltaCPU, Freq float64
}

// Action renders the filled action by name.
func (s *Staged) Action(cat *Catalog) Action {
	a := Action{Kind: s.Kind, DeltaCPUPct: s.DeltaCPU, Freq: s.Freq}
	if s.VM >= 0 {
		a.VM = cat.vmIDs[s.VM]
	}
	if s.Host >= 0 {
		a.Host = cat.hostNames[s.Host]
	}
	switch s.Kind {
	case ActionAddReplica:
		a.CPUPct = s.NewCPU
	case ActionRemoveReplica:
		a.FromHost = cat.hostNames[s.OldHost]
	case ActionMigrate, ActionWANMigrate:
		a.FromHost = cat.hostNames[s.OldHost]
		a.CPUPct = s.OldCPU
	}
	return a
}

// Delta renders the change the action makes by name.
func (s *Staged) Delta(cat *Catalog) Delta {
	switch s.Kind {
	case ActionStartHost, ActionStopHost:
		return Delta{Host: cat.hostNames[s.Host], On: s.Kind == ActionStartHost}
	case ActionSetDVFS:
		return Delta{FreqHost: cat.hostNames[s.Host], NewFreq: s.Freq}
	}
	d := Delta{VM: cat.vmIDs[s.VM]}
	if s.OldHost >= 0 {
		d.OldPlaced, d.Old = true, Placement{Host: cat.hostNames[s.OldHost], CPUPct: s.OldCPU}
	}
	if s.NewHost >= 0 {
		d.NewPlaced, d.New = true, Placement{Host: cat.hostNames[s.NewHost], CPUPct: s.NewCPU}
	}
	return d
}

// FingerprintWith returns the fingerprint of the loaded configuration, whose
// fingerprint is fp, after the staged action: Config.FingerprintWith on the
// rendered delta, bit for bit, folded from the catalog's token prefixes
// instead of re-hashing names. It relies on Config never storing a nominal
// DVFS level: a host runs at 1 exactly when it has no hostFreq entry.
func (v *View) FingerprintWith(fp Fingerprint, s *Staged) Fingerprint {
	cat := v.cat
	switch s.Kind {
	case ActionStartHost, ActionStopHost:
		fp.xor(cat.tokOn[s.Host]) // staged, so the power state flips
	case ActionSetDVFS:
		pre := cat.tokFreq[s.Host]
		if old := v.HostFreq[s.Host]; old != 1 {
			fp.xor(pre.int64(freqBucket(old)).fingerprint())
		}
		if s.Freq != 1 {
			fp.xor(pre.int64(freqBucket(s.Freq)).fingerprint())
		}
	default:
		row := cat.tokPlace[int(s.VM)*len(cat.hostNames):]
		if s.OldHost >= 0 {
			fp.xor(row[s.OldHost].int64(cpuBucket(s.OldCPU)).fingerprint())
		}
		if s.NewHost >= 0 {
			fp.xor(row[s.NewHost].int64(cpuBucket(s.NewCPU)).fingerprint())
		}
	}
	return fp
}

// Moves is an ActionSpace resolved against a catalog once, so generating a
// configuration's actions tests a bit, a bool and a matrix cell instead of
// scanning kind lists and building host sets per call.
type Moves struct {
	kinds   uint32 // bit per ActionKind; every bit set when unrestricted
	hosts   []bool // per host: in scope; nil when unrestricted
	appHost []bool // per (app, host), row-major by app; nil without pools
	nHosts  int
}

// Resolve compiles the action space against cat.
func (s ActionSpace) Resolve(cat *Catalog) Moves {
	m := Moves{kinds: ^uint32(0), nHosts: len(cat.hostNames)}
	if len(s.Kinds) > 0 {
		m.kinds = 0
		for _, k := range s.Kinds {
			if k > 0 && k < 32 {
				m.kinds |= 1 << uint(k)
			}
		}
	}
	if len(s.Hosts) > 0 {
		m.hosts = make([]bool, m.nHosts)
		for _, name := range s.Hosts {
			if h, ok := cat.hostIdx[name]; ok {
				m.hosts[h] = true
			}
		}
	}
	if len(s.AppPools) > 0 {
		m.appHost = make([]bool, len(cat.apps)*m.nHosts)
		for a, name := range cat.apps {
			row := m.appHost[a*m.nHosts : (a+1)*m.nHosts]
			pool, pooled := s.AppPools[name]
			if !pooled {
				for h := range row {
					row[h] = true
				}
				continue
			}
			for _, host := range pool {
				if h, ok := cat.hostIdx[host]; ok {
					row[h] = true
				}
			}
		}
	}
	return m
}

func (m *Moves) allows(k ActionKind) bool { return m.kinds&(1<<uint(k)) != 0 }
func (m *Moves) inScope(h int) bool       { return m.hosts == nil || m.hosts[h] }
func (m *Moves) appMayUse(app, h int) bool {
	return m.appHost == nil || m.appHost[app*m.nHosts+h]
}

// Expand appends to out every feasible single action from the loaded
// configuration within the resolved action space, each already staged, in
// Enumerate's order: per VM in catalog order (CPU up, CPU down, migrations
// by destination, removal — or additions by target for a dormant VM), then
// per host (stop and DVFS levels, or start). An infeasible proposal costs a
// branch in stage, nothing else.
func (v *View) Expand(m *Moves, out []Staged) []Staged {
	cat := v.cat
	// Each proposal is staged in place in the slot it will keep; a refused
	// one (rare: the loops below propose little that cannot be done) gives
	// the slot back.
	try := func(p Staged) {
		out = append(out, p)
		if v.stage(&out[len(out)-1]) != feasible {
			out = out[:len(out)-1]
		}
	}
	for i := range cat.vmIDs {
		vm := int32(i)
		src := v.VMHost[i]
		app := int(cat.vmApp[i])
		if src < 0 {
			if !m.allows(ActionAddReplica) {
				continue
			}
			for h := range cat.hostNames {
				if m.inScope(h) && v.HostOn[h] && m.appMayUse(app, h) {
					try(Staged{Kind: ActionAddReplica, VM: vm, Host: int32(h), NewCPU: cat.MinCPUPct})
				}
			}
			continue
		}
		if !m.inScope(int(src)) {
			continue
		}
		if m.allows(ActionIncreaseCPU) {
			try(Staged{Kind: ActionIncreaseCPU, VM: vm, Host: src, DeltaCPU: cat.CPUStepPct})
		}
		if m.allows(ActionDecreaseCPU) {
			try(Staged{Kind: ActionDecreaseCPU, VM: vm, Host: src, DeltaCPU: cat.CPUStepPct})
		}
		if m.allows(ActionMigrate) || m.allows(ActionWANMigrate) {
			srcZone := cat.hostSpecs[src].Zone
			for h := range cat.hostNames {
				if h == int(src) || !m.inScope(h) || !v.HostOn[h] || !m.appMayUse(app, h) {
					continue
				}
				kind := ActionMigrate
				if cat.hostSpecs[h].Zone != srcZone {
					kind = ActionWANMigrate
				}
				if m.allows(kind) {
					try(Staged{Kind: kind, VM: vm, Host: int32(h)})
				}
			}
		}
		if m.allows(ActionRemoveReplica) {
			try(Staged{Kind: ActionRemoveReplica, VM: vm, Host: -1})
		}
	}
	for i := range cat.hostNames {
		h := int32(i)
		if !m.inScope(i) {
			continue
		}
		if !v.HostOn[h] {
			if m.allows(ActionStartHost) {
				try(Staged{Kind: ActionStartHost, VM: -1, Host: h})
			}
			continue
		}
		if m.allows(ActionStopHost) {
			try(Staged{Kind: ActionStopHost, VM: -1, Host: h})
		}
		if m.allows(ActionSetDVFS) {
			spec := &cat.hostSpecs[h]
			hasNominal := false
			for _, f := range spec.DVFSLevels {
				if f == 1 {
					hasNominal = true
				}
				if f != v.HostFreq[h] {
					try(Staged{Kind: ActionSetDVFS, VM: -1, Host: h, Freq: f})
				}
			}
			// Returning to nominal speed is always available.
			if !hasNominal && spec.SupportsDVFS() && v.HostFreq[h] != 1 {
				try(Staged{Kind: ActionSetDVFS, VM: -1, Host: h, Freq: 1})
			}
		}
	}
	return out
}

// refusal says why an action is infeasible; Stage turns it into the error
// text, the generator only branches on it.
type refusal uint8

const (
	feasible refusal = iota
	refuseNotActive
	refuseOverHost
	refuseUnderMin
	refuseUnknownVM
	refuseAlreadyActive
	refuseUnknownHost
	refuseHostOff
	refuseLastReplica
	refuseSameHost
	refuseCrossZone
	refuseSameZone
	refuseAlreadyOn
	refuseAlreadyOff
	refuseHostBusy
	refuseNoLevel
	refuseAtLevel
	refuseUnknownKind
)

// stage holds the feasibility rules — the only copy; Stage, Apply,
// Enumerate and Expand all come through here. s arrives as the proposal: its
// Kind, the catalog indices of the VM and Host it names (-1 when unknown or
// unnamed) and the parameter its caller may choose — DeltaCPU of a CPU
// change, NewCPU of an addition (zero: the catalog's step and minimum), Freq
// of a set-dvfs. stage checks that the action makes sense in the loaded
// configuration (a migrated VM must be active, the destination powered on,
// …), not candidate constraints: the change may oversubscribe a host, as the
// paper's search deliberately allows. On success *s is the staged action; on
// refusal only a CPU change's defaulted DeltaCPU has been written.
func (v *View) stage(s *Staged) refusal {
	cat := v.cat
	vm, host := s.VM, s.Host
	src := int32(Dormant)
	var cpu float64 // the VM's current allocation; only read when src >= 0
	if vm >= 0 {
		src, cpu = v.VMHost[vm], v.VMCPU[vm]
	}

	switch s.Kind {
	case ActionIncreaseCPU, ActionDecreaseCPU:
		if src < 0 {
			return refuseNotActive
		}
		if s.DeltaCPU <= 0 {
			s.DeltaCPU = cat.CPUStepPct
		}
		next := cpu + s.DeltaCPU
		if s.Kind == ActionDecreaseCPU {
			next = cpu - s.DeltaCPU
			if next < cat.MinCPUPct-1e-9 {
				return refuseUnderMin
			}
		} else if next > cat.hostSpecs[src].UsableCPUPct+1e-9 {
			return refuseOverHost
		}
		*s = Staged{Kind: s.Kind, VM: vm, Host: src, OldHost: src, NewHost: src, OldCPU: cpu, NewCPU: next, DeltaCPU: s.DeltaCPU}
		return feasible

	case ActionAddReplica:
		switch {
		case vm < 0:
			return refuseUnknownVM
		case src >= 0:
			return refuseAlreadyActive
		case host < 0:
			return refuseUnknownHost
		case !v.HostOn[host]:
			return refuseHostOff
		}
		cpu = s.NewCPU
		if cpu <= 0 {
			cpu = cat.MinCPUPct
		}
		*s = Staged{Kind: s.Kind, VM: vm, Host: host, OldHost: Dormant, NewHost: host, NewCPU: cpu}
		return feasible

	case ActionRemoveReplica:
		switch {
		case vm < 0:
			return refuseUnknownVM
		case src < 0:
			return refuseNotActive
		}
		if t := cat.vmTier[vm]; cat.tierRequired[t] && v.TierActive[t] <= 1 {
			return refuseLastReplica
		}
		*s = Staged{Kind: s.Kind, VM: vm, Host: -1, OldHost: src, NewHost: Dormant, OldCPU: cpu}
		return feasible

	case ActionMigrate, ActionWANMigrate:
		switch {
		case src < 0:
			return refuseNotActive
		case host < 0:
			return refuseUnknownHost
		case host == src:
			return refuseSameHost
		case !v.HostOn[host]:
			return refuseHostOff
		}
		sameZone := cat.hostSpecs[src].Zone == cat.hostSpecs[host].Zone
		if s.Kind == ActionMigrate && !sameZone {
			return refuseCrossZone
		}
		if s.Kind == ActionWANMigrate && sameZone {
			return refuseSameZone
		}
		*s = Staged{Kind: s.Kind, VM: vm, Host: host, OldHost: src, NewHost: host, OldCPU: cpu, NewCPU: cpu}
		return feasible

	case ActionStartHost:
		switch {
		case host < 0:
			return refuseUnknownHost
		case v.HostOn[host]:
			return refuseAlreadyOn
		}
		*s = hostAction(s.Kind, host, 0)
		return feasible

	case ActionStopHost:
		switch {
		case host < 0:
			return refuseUnknownHost
		case !v.HostOn[host]:
			return refuseAlreadyOff
		case v.HostVMs[host] > 0:
			return refuseHostBusy
		}
		*s = hostAction(s.Kind, host, 0)
		return feasible

	case ActionSetDVFS:
		switch {
		case host < 0:
			return refuseUnknownHost
		case !v.HostOn[host]:
			return refuseHostOff
		case !cat.hostSpecs[host].HasDVFSLevel(s.Freq):
			return refuseNoLevel
		case v.HostFreq[host] == s.Freq:
			return refuseAtLevel
		}
		*s = hostAction(s.Kind, host, s.Freq)
		return feasible

	default:
		return refuseUnknownKind
	}
}

// hostAction is the staged form of a power or DVFS change: it names no VM.
func hostAction(kind ActionKind, host int32, freq float64) Staged {
	return Staged{Kind: kind, VM: -1, Host: host, OldHost: Dormant, NewHost: Dormant, Freq: freq}
}

// refusalError renders why stage refused a, in Stage's historical wording.
func (v *View) refusalError(why refusal, a Action, vm, host int) error {
	cat := v.cat
	switch why {
	case refuseNotActive:
		return fmt.Errorf("cluster: %s: VM %q not active", a.Kind, a.VM)
	case refuseOverHost:
		src := v.VMHost[vm]
		return fmt.Errorf("cluster: increase-cpu: VM %q would exceed host usable capacity (%.1f+%.1f > %.1f)", a.VM, v.VMCPU[vm], a.DeltaCPUPct, cat.hostSpecs[src].UsableCPUPct)
	case refuseUnderMin:
		return fmt.Errorf("cluster: decrease-cpu: VM %q would fall below minimum (%.1f-%.1f < %.1f)", a.VM, v.VMCPU[vm], a.DeltaCPUPct, cat.MinCPUPct)
	case refuseUnknownVM:
		return fmt.Errorf("cluster: %s: unknown VM %q", a.Kind, a.VM)
	case refuseAlreadyActive:
		return fmt.Errorf("cluster: add-replica: VM %q already active", a.VM)
	case refuseUnknownHost:
		return fmt.Errorf("cluster: %s: unknown host %q", a.Kind, a.Host)
	case refuseHostOff:
		if a.Kind == ActionMigrate || a.Kind == ActionWANMigrate {
			return fmt.Errorf("cluster: %s: destination host %q is off", a.Kind, a.Host)
		}
		return fmt.Errorf("cluster: %s: host %q is off", a.Kind, a.Host)
	case refuseLastReplica:
		k := cat.tiers[cat.vmTier[vm]]
		return fmt.Errorf("cluster: remove-replica: VM %q is the last replica of required tier %s/%s", a.VM, k.App, k.Tier)
	case refuseSameHost:
		return fmt.Errorf("cluster: %s: VM %q already on host %q", a.Kind, a.VM, a.Host)
	case refuseCrossZone:
		return fmt.Errorf("cluster: migrate: %q and %q are in different zones; use wan-migrate", cat.hostNames[v.VMHost[vm]], a.Host)
	case refuseSameZone:
		return fmt.Errorf("cluster: wan-migrate: %q and %q share a zone; use migrate", cat.hostNames[v.VMHost[vm]], a.Host)
	case refuseAlreadyOn:
		return fmt.Errorf("cluster: start-host: host %q already on", a.Host)
	case refuseAlreadyOff:
		return fmt.Errorf("cluster: stop-host: host %q already off", a.Host)
	case refuseHostBusy:
		return fmt.Errorf("cluster: stop-host: host %q still has %d VMs", a.Host, v.HostVMs[host])
	case refuseNoLevel:
		return fmt.Errorf("cluster: set-dvfs: host %q has no level %v", a.Host, a.Freq)
	case refuseAtLevel:
		return fmt.Errorf("cluster: set-dvfs: host %q already at %v", a.Host, a.Freq)
	default:
		return fmt.Errorf("cluster: unknown action kind %d", int(a.Kind))
	}
}
