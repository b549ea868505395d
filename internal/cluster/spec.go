// Package cluster models the managed infrastructure of the Mistral paper:
// physical hosts, virtual machines, their placement and CPU allocations, and
// the six adaptation actions that transform one configuration into another
// (increase/decrease a VM's CPU capacity, add/remove a replica, live-migrate
// a VM, and start/stop a host).
//
// A Catalog describes what exists (host specs, the universe of VMs including
// dormant replicas kept in the cold-store pool, and allocation constraints).
// A Config describes the current assignment: which hosts are powered on,
// which VMs are active, where each active VM is placed, and how much CPU it
// is allocated. Configs are immutable values from the caller's perspective:
// every transformation returns a fresh Config.
package cluster

import (
	"fmt"
	"sort"
	"time"
)

// VMID uniquely identifies a virtual machine within a Catalog.
type VMID string

// Dom0CPUShare is the fraction of a host's CPU reserved for Dom-0, the share
// the paper's 80% VM cap leaves on a 100% host. The performance model and the
// request-level simulator both size the Dom-0 station with it. It is written
// out, not derived from UsableCPUPct: 1-80/100 is not 0.20 in float64.
const Dom0CPUShare = 0.20

// HostSpec describes a physical machine. The defaults mirror the paper's
// testbed: Pentium-4 class hosts with 1 GB of memory, 200 MB reserved for
// Dom-0, at most 4 VMs per host, and 80% of CPU available to guest VMs.
type HostSpec struct {
	// Name is the unique host identifier.
	Name string
	// TotalCPUPct is the full capacity of the host in percent (100 for a
	// single core at reference speed).
	TotalCPUPct float64
	// UsableCPUPct caps the sum of VM CPU allocations, reserving headroom
	// for Dom-0 (80 in the paper; see Dom0CPUShare).
	UsableCPUPct float64
	// MemoryMB is total physical memory.
	MemoryMB int
	// Dom0MemoryMB is reserved for the hypervisor's control domain.
	Dom0MemoryMB int
	// MaxVMs limits how many VMs may be placed on the host.
	MaxVMs int

	// IdleWatts and BusyWatts anchor the utilization-based power model.
	IdleWatts float64
	BusyWatts float64
	// PowerExponent is the calibrated exponent r in
	// pwr = idle + (busy-idle)*(2ρ − ρ^r).
	PowerExponent float64

	// BootDuration/BootWatts and ShutdownDuration/ShutdownWatts are the
	// transient costs of power cycling (90 s / 80 W and 30 s / 20 W in the
	// paper).
	BootDuration     time.Duration
	BootWatts        float64
	ShutdownDuration time.Duration
	ShutdownWatts    float64

	// Zone names the data center the host lives in (empty = the single
	// default zone). Cross-zone moves use the WANMigrate action — the §VI
	// "migration over WAN ... between data centers" extension — and
	// cross-zone tier traffic pays a WAN latency penalty.
	Zone string

	// DVFSLevels lists the host's available frequency levels as fractions
	// of nominal speed, ascending, each in (0,1]. Empty means the host has
	// no frequency scaling. DVFS is the paper's §VI "complementary
	// technique for the lowest level controllers", implemented here as an
	// extension: the SetDVFS action trades compute capacity for power.
	DVFSLevels []float64
}

// SupportsDVFS reports whether the host exposes frequency levels.
func (h HostSpec) SupportsDVFS() bool { return len(h.DVFSLevels) > 0 }

// HasDVFSLevel reports whether f is one of the host's levels (nominal 1.0
// is always legal).
func (h HostSpec) HasDVFSLevel(f float64) bool {
	if f == 1 {
		return true
	}
	for _, l := range h.DVFSLevels {
		if l == f {
			return true
		}
	}
	return false
}

// DefaultHostSpec returns a host spec matching the paper's testbed machines.
func DefaultHostSpec(name string) HostSpec {
	return HostSpec{
		Name:             name,
		TotalCPUPct:      100,
		UsableCPUPct:     80,
		MemoryMB:         1024,
		Dom0MemoryMB:     200,
		MaxVMs:           4,
		IdleWatts:        60,
		BusyWatts:        95,
		PowerExponent:    1.4,
		BootDuration:     90 * time.Second,
		BootWatts:        80,
		ShutdownDuration: 30 * time.Second,
		ShutdownWatts:    20,
	}
}

// VMSpec describes a virtual machine: which application tier replica it
// hosts and its fixed memory requirement. VMs not placed in a Config are
// dormant (parked in the cold-store pool).
type VMSpec struct {
	ID       VMID
	App      string
	Tier     string
	Replica  int
	MemoryMB int
}

// TierKey identifies one tier of one application.
type TierKey struct {
	App  string
	Tier string
}

// Catalog is the immutable description of everything the controller may
// manage. Construct with NewCatalog, which validates internal consistency.
type Catalog struct {
	hosts     map[string]HostSpec
	hostNames []string   // sorted
	hostSpecs []HostSpec // aligned with hostNames
	hostIdx   map[string]int
	vms       map[VMID]VMSpec
	vmIDs     []VMID // sorted
	vmIdx     map[VMID]int
	byTier    map[TierKey][]VMID
	tiers     []TierKey // sorted by (App, Tier)
	apps      []string  // sorted, distinct

	// Dense per-VM facts aligned with vmIDs, and per-tier facts aligned
	// with tiers: what a View needs to fold a Config without a map read.
	vmApp        []int32 // index into apps
	vmTier       []int32 // index into tiers
	vmMem        []int   // VMSpec.MemoryMB
	tierRequired []bool

	// Fingerprint token prefixes, hashed from the names once (see
	// buildTokens): tokPlace per (VM, host) row-major by VM, tokOn and
	// tokFreq per host.
	tokPlace []tokenHash
	tokOn    []Fingerprint
	tokFreq  []tokenHash

	// MinCPUPct is the smallest allocation any active VM may have (20 in
	// the paper, to avoid request errors at low rates).
	MinCPUPct float64
	// CPUStepPct is the fixed amount by which the increase/decrease CPU
	// actions change an allocation.
	CPUStepPct float64
	// requiredTiers lists tiers that must keep at least one active replica.
	requiredTiers map[TierKey]bool
}

// CatalogConfig carries the tunables for NewCatalog.
type CatalogConfig struct {
	Hosts      []HostSpec
	VMs        []VMSpec
	MinCPUPct  float64 // default 20
	CPUStepPct float64 // default 10
	// OptionalTiers lists tiers allowed to scale to zero replicas. All
	// other tiers must retain at least one active replica.
	OptionalTiers []TierKey
}

// NewCatalog validates and builds a Catalog.
func NewCatalog(cfg CatalogConfig) (*Catalog, error) {
	if len(cfg.Hosts) == 0 {
		return nil, fmt.Errorf("cluster: catalog needs at least one host")
	}
	if len(cfg.VMs) == 0 {
		return nil, fmt.Errorf("cluster: catalog needs at least one VM")
	}
	c := &Catalog{
		hosts:         make(map[string]HostSpec, len(cfg.Hosts)),
		vms:           make(map[VMID]VMSpec, len(cfg.VMs)),
		byTier:        make(map[TierKey][]VMID),
		MinCPUPct:     cfg.MinCPUPct,
		CPUStepPct:    cfg.CPUStepPct,
		requiredTiers: make(map[TierKey]bool),
	}
	if c.MinCPUPct <= 0 {
		c.MinCPUPct = 20
	}
	if c.CPUStepPct <= 0 {
		c.CPUStepPct = 10
	}
	for _, h := range cfg.Hosts {
		if h.Name == "" {
			return nil, fmt.Errorf("cluster: host with empty name")
		}
		if _, dup := c.hosts[h.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate host %q", h.Name)
		}
		if h.UsableCPUPct <= 0 || h.UsableCPUPct > h.TotalCPUPct {
			return nil, fmt.Errorf("cluster: host %q has invalid usable CPU %v/%v", h.Name, h.UsableCPUPct, h.TotalCPUPct)
		}
		if h.MaxVMs <= 0 {
			return nil, fmt.Errorf("cluster: host %q has MaxVMs %d", h.Name, h.MaxVMs)
		}
		for i, f := range h.DVFSLevels {
			if f <= 0 || f > 1 {
				return nil, fmt.Errorf("cluster: host %q DVFS level %v outside (0,1]", h.Name, f)
			}
			if i > 0 && f <= h.DVFSLevels[i-1] {
				return nil, fmt.Errorf("cluster: host %q DVFS levels not ascending", h.Name)
			}
		}
		c.hosts[h.Name] = h
		c.hostNames = append(c.hostNames, h.Name)
	}
	sort.Strings(c.hostNames)
	c.hostSpecs = make([]HostSpec, len(c.hostNames))
	c.hostIdx = make(map[string]int, len(c.hostNames))
	for i, name := range c.hostNames {
		c.hostSpecs[i] = c.hosts[name]
		c.hostIdx[name] = i
	}
	for _, vm := range cfg.VMs {
		if vm.ID == "" {
			return nil, fmt.Errorf("cluster: VM with empty ID")
		}
		if _, dup := c.vms[vm.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate VM %q", vm.ID)
		}
		if vm.MemoryMB <= 0 {
			return nil, fmt.Errorf("cluster: VM %q has memory %d MB", vm.ID, vm.MemoryMB)
		}
		c.vms[vm.ID] = vm
		c.vmIDs = append(c.vmIDs, vm.ID)
		k := TierKey{App: vm.App, Tier: vm.Tier}
		c.byTier[k] = append(c.byTier[k], vm.ID)
		c.requiredTiers[k] = true
	}
	sort.Slice(c.vmIDs, func(i, j int) bool { return c.vmIDs[i] < c.vmIDs[j] })
	c.vmIdx = make(map[VMID]int, len(c.vmIDs))
	for i, id := range c.vmIDs {
		c.vmIdx[id] = i
	}
	for k := range c.byTier {
		ids := c.byTier[k]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		c.tiers = append(c.tiers, k)
	}
	sort.Slice(c.tiers, func(i, j int) bool {
		if c.tiers[i].App != c.tiers[j].App {
			return c.tiers[i].App < c.tiers[j].App
		}
		return c.tiers[i].Tier < c.tiers[j].Tier
	})
	for _, k := range cfg.OptionalTiers {
		if _, ok := c.byTier[k]; !ok {
			return nil, fmt.Errorf("cluster: optional tier %v has no VMs", k)
		}
		c.requiredTiers[k] = false
	}
	tierIdx := make(map[TierKey]int32, len(c.tiers))
	appIdx := make(map[string]int32)
	c.tierRequired = make([]bool, len(c.tiers))
	for i, k := range c.tiers {
		tierIdx[k] = int32(i)
		c.tierRequired[i] = c.requiredTiers[k]
		if _, ok := appIdx[k.App]; !ok {
			appIdx[k.App] = int32(len(c.apps))
			c.apps = append(c.apps, k.App)
		}
	}
	c.vmApp = make([]int32, len(c.vmIDs))
	c.vmTier = make([]int32, len(c.vmIDs))
	c.vmMem = make([]int, len(c.vmIDs))
	for i, id := range c.vmIDs {
		vm := c.vms[id]
		c.vmApp[i] = appIdx[vm.App]
		c.vmTier[i] = tierIdx[TierKey{App: vm.App, Tier: vm.Tier}]
		c.vmMem[i] = vm.MemoryMB
	}
	c.buildTokens()
	return c, nil
}

// Host returns the spec for a host name.
func (c *Catalog) Host(name string) (HostSpec, bool) {
	h, ok := c.hosts[name]
	return h, ok
}

// HostNames returns all host names in sorted order. The slice is shared;
// callers must not mutate it.
func (c *Catalog) HostNames() []string { return c.hostNames }

// HostSpecs returns every host's spec, aligned with HostNames. The slice is
// shared; callers must not mutate it.
func (c *Catalog) HostSpecs() []HostSpec { return c.hostSpecs }

// HostIndex returns a host's position in HostNames, the index dense
// per-host state (the LQN solver's, the Perf-Pwr reduction's) is keyed by.
func (c *Catalog) HostIndex(name string) (int, bool) {
	i, ok := c.hostIdx[name]
	return i, ok
}

// VM returns the spec for a VM ID.
func (c *Catalog) VM(id VMID) (VMSpec, bool) {
	vm, ok := c.vms[id]
	return vm, ok
}

// VMIDs returns all VM IDs (active and dormant) in sorted order. The slice
// is shared; callers must not mutate it.
func (c *Catalog) VMIDs() []VMID { return c.vmIDs }

// VMIndex returns a VM's position in VMIDs.
func (c *Catalog) VMIndex(id VMID) (int, bool) {
	i, ok := c.vmIdx[id]
	return i, ok
}

// TierVMs returns the IDs of all VMs (replicas) belonging to a tier, sorted.
// The slice is shared; callers must not mutate it.
func (c *Catalog) TierVMs(k TierKey) []VMID { return c.byTier[k] }

// Tiers returns all tier keys sorted by application, then tier. The slice
// is shared; callers must not mutate it.
func (c *Catalog) Tiers() []TierKey { return c.tiers }

// Apps returns the distinct application names in sorted order. The slice
// is shared; callers must not mutate it.
func (c *Catalog) Apps() []string { return c.apps }

// VMApp returns the position in Apps of the application the i-th VM of
// VMIDs belongs to.
func (c *Catalog) VMApp(i int) int { return int(c.vmApp[i]) }

// VMTier returns the position in Tiers of the tier the i-th VM of VMIDs
// belongs to.
func (c *Catalog) VMTier(i int) int { return int(c.vmTier[i]) }

// ActionIndices resolves the names an action carries to catalog indices:
// its VM's position in VMIDs and its Host's and FromHost's in HostNames,
// each -1 when the action names none or one the catalog does not know.
func (c *Catalog) ActionIndices(a Action) (vm, host, from int) {
	vm, host, from = -1, -1, -1
	if i, ok := c.vmIdx[a.VM]; ok {
		vm = i
	}
	if i, ok := c.hostIdx[a.Host]; ok {
		host = i
	}
	if i, ok := c.hostIdx[a.FromHost]; ok {
		from = i
	}
	return vm, host, from
}

// TierRequired reports whether the tier must keep at least one active
// replica in any candidate configuration.
func (c *Catalog) TierRequired(k TierKey) bool { return c.requiredTiers[k] }

// Zones returns the distinct zone names in sorted order (the empty default
// zone is listed as "" when any host uses it).
func (c *Catalog) Zones() []string {
	seen := make(map[string]bool)
	var zones []string
	for _, name := range c.hostNames {
		z := c.hosts[name].Zone
		if !seen[z] {
			seen[z] = true
			zones = append(zones, z)
		}
	}
	sort.Strings(zones)
	return zones
}

// ZoneOf returns the zone of a host (empty for unknown hosts).
func (c *Catalog) ZoneOf(host string) string {
	return c.hosts[host].Zone
}

// HostsInZone returns the sorted host names belonging to a zone.
func (c *Catalog) HostsInZone(zone string) []string {
	var out []string
	for _, name := range c.hostNames {
		if c.hosts[name].Zone == zone {
			out = append(out, name)
		}
	}
	return out
}

// MaxVMCPUPct returns the largest CPU allocation any single VM may hold,
// which is the largest usable capacity across hosts.
func (c *Catalog) MaxVMCPUPct() float64 {
	var maxCPU float64
	for _, h := range c.hosts {
		if h.UsableCPUPct > maxCPU {
			maxCPU = h.UsableCPUPct
		}
	}
	return maxCPU
}
