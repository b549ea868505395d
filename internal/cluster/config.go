package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// Placement records where an active VM runs and how much CPU it is
// allocated, in percent of the reference host capacity.
type Placement struct {
	Host   string
	CPUPct float64
}

// Config is a complete assignment of the managed infrastructure: the power
// state of every host and the placement/allocation of every active VM.
// VMs in the catalog that do not appear in the config are dormant.
//
// Treat Config values as immutable: derive new ones with Clone or by
// applying Actions. The zero value is an empty configuration.
//
// A Config carries an incrementally maintained 128-bit Fingerprint (see
// fingerprint.go) kept in sync by the four mutators; all mutation must go
// through Place/Unplace/SetHostOn/SetHostFreq (everything in this package
// does).
type Config struct {
	// hostOn marks powered-on hosts. Hosts absent from the map are off.
	hostOn map[string]bool
	// placements maps active VM -> placement.
	placements map[VMID]Placement
	// hostFreq holds DVFS frequency fractions; hosts absent from the map
	// run at nominal speed (1.0).
	hostFreq map[string]float64

	// fp is the XOR-folded structural hash of the three maps.
	fp Fingerprint

	// shared* mark maps borrowed from another Config via CloneShared; the
	// mutators copy-on-write a shared map before touching it.
	sharedOn, sharedPl, sharedFq bool
}

// NewConfig returns an empty configuration (all hosts off, all VMs dormant).
func NewConfig() Config {
	return Config{
		hostOn:     make(map[string]bool),
		placements: make(map[VMID]Placement),
	}
}

// Clone returns a deep copy.
func (c Config) Clone() Config {
	n := Config{
		hostOn:     make(map[string]bool, len(c.hostOn)),
		placements: make(map[VMID]Placement, len(c.placements)),
		fp:         c.fp,
	}
	for h, on := range c.hostOn {
		if on {
			n.hostOn[h] = true
		}
	}
	for id, p := range c.placements {
		n.placements[id] = p
	}
	if len(c.hostFreq) > 0 {
		n.hostFreq = make(map[string]float64, len(c.hostFreq))
		for h, f := range c.hostFreq {
			n.hostFreq[h] = f
		}
	}
	return n
}

// CloneShared returns a copy-on-write copy: the three maps are shared with
// the receiver and copied lazily by the first mutator that touches each.
// The receiver must be treated as frozen (never mutated in place) for as
// long as shared copies are live — the adaptation search satisfies this by
// construction (vertex configurations are only read after creation). For a
// copy that stays independent no matter what, use Clone.
func (c Config) CloneShared() Config {
	c.sharedOn, c.sharedPl, c.sharedFq = true, true, true
	return c
}

// ownHostOn, ownPlacements, and ownHostFreq are the copy-on-write barriers:
// each makes the corresponding map private (and non-nil) before a mutation.
func (c *Config) ownHostOn() {
	if !c.sharedOn {
		if c.hostOn == nil {
			c.hostOn = make(map[string]bool)
		}
		return
	}
	n := make(map[string]bool, len(c.hostOn)+1)
	for h, on := range c.hostOn {
		n[h] = on
	}
	c.hostOn = n
	c.sharedOn = false
}

func (c *Config) ownPlacements() {
	if !c.sharedPl {
		if c.placements == nil {
			c.placements = make(map[VMID]Placement)
		}
		return
	}
	n := make(map[VMID]Placement, len(c.placements)+1)
	for id, p := range c.placements {
		n[id] = p
	}
	c.placements = n
	c.sharedPl = false
}

func (c *Config) ownHostFreq() {
	if !c.sharedFq {
		if c.hostFreq == nil {
			c.hostFreq = make(map[string]float64)
		}
		return
	}
	n := make(map[string]float64, len(c.hostFreq)+1)
	for h, f := range c.hostFreq {
		n[h] = f
	}
	c.hostFreq = n
	c.sharedFq = false
}

// SetHostFreq sets a host's DVFS frequency fraction; 1 restores nominal
// speed. It does not check the host supports the level; use Validate.
func (c *Config) SetHostFreq(host string, f float64) {
	old, had := c.hostFreq[host]
	if had && old == f {
		return
	}
	if f == 1 && !had {
		return
	}
	c.ownHostFreq()
	if had {
		c.fp.xor(tokFreq(host, freqBucket(old)))
	}
	if f == 1 {
		delete(c.hostFreq, host)
		return
	}
	c.fp.xor(tokFreq(host, freqBucket(f)))
	c.hostFreq[host] = f
}

// HostFreq returns the host's DVFS frequency fraction (1 = nominal).
func (c Config) HostFreq(host string) float64 {
	if f, ok := c.hostFreq[host]; ok {
		return f
	}
	return 1
}

// SetHostOn powers a host on or off in the configuration. It does not check
// constraints; use Validate.
func (c *Config) SetHostOn(host string, on bool) {
	if c.hostOn[host] == on {
		return
	}
	c.ownHostOn()
	c.fp.xor(tokHostOn(host))
	if on {
		c.hostOn[host] = true
	} else {
		delete(c.hostOn, host)
	}
}

// HostOn reports whether a host is powered on.
func (c Config) HostOn(host string) bool { return c.hostOn[host] }

// ActiveHosts returns the sorted names of powered-on hosts.
func (c Config) ActiveHosts() []string {
	hosts := make([]string, 0, len(c.hostOn))
	for h, on := range c.hostOn {
		if on {
			hosts = append(hosts, h)
		}
	}
	sort.Strings(hosts)
	return hosts
}

// NumActiveHosts returns the count of powered-on hosts.
func (c Config) NumActiveHosts() int {
	n := 0
	for _, on := range c.hostOn {
		if on {
			n++
		}
	}
	return n
}

// Place activates a VM on a host with the given CPU allocation (or updates
// its placement if already active). It does not check constraints.
func (c *Config) Place(id VMID, host string, cpuPct float64) {
	c.ownPlacements()
	if old, ok := c.placements[id]; ok {
		c.fp.xor(tokPlacement(id, old.Host, cpuBucket(old.CPUPct)))
	}
	c.fp.xor(tokPlacement(id, host, cpuBucket(cpuPct)))
	c.placements[id] = Placement{Host: host, CPUPct: cpuPct}
}

// Unplace deactivates a VM (returns it to the dormant pool).
func (c *Config) Unplace(id VMID) {
	old, ok := c.placements[id]
	if !ok {
		return
	}
	c.ownPlacements()
	c.fp.xor(tokPlacement(id, old.Host, cpuBucket(old.CPUPct)))
	delete(c.placements, id)
}

// PlacementOf returns the placement of a VM and whether it is active.
func (c Config) PlacementOf(id VMID) (Placement, bool) {
	p, ok := c.placements[id]
	return p, ok
}

// Active reports whether the VM is placed.
func (c Config) Active(id VMID) bool {
	_, ok := c.placements[id]
	return ok
}

// ActiveVMs returns the sorted IDs of all active VMs.
func (c Config) ActiveVMs() []VMID {
	ids := make([]VMID, 0, len(c.placements))
	for id := range c.placements {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// VMsOnHost returns the sorted IDs of VMs placed on the host.
func (c Config) VMsOnHost(host string) []VMID {
	var ids []VMID
	for id, p := range c.placements {
		if p.Host == host {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// AllocatedCPU returns the sum of CPU allocations on the host, folded in
// sorted VM order so the floating-point result is bit-identical across
// runs (map iteration order would perturb its last bits).
func (c Config) AllocatedCPU(host string) float64 {
	var sum float64
	for _, id := range c.VMsOnHost(host) {
		sum += c.placements[id].CPUPct
	}
	return sum
}

// ActiveReplicas returns the sorted IDs of active VMs in the given tier,
// using cat to resolve tier membership.
func (c Config) ActiveReplicas(cat *Catalog, k TierKey) []VMID {
	var ids []VMID
	for _, id := range cat.TierVMs(k) {
		if c.Active(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// Equal reports whether two configurations are identical: the same hosts
// on, the same placements at 0.01 % of CPU and the same DVFS levels at
// 0.001. It compares the incrementally maintained fingerprints — two word
// compares — rather than building two sorted key strings.
func (c Config) Equal(o Config) bool { return c.fp == o.fp }

// Violation describes one violated constraint found by Validate.
type Violation struct {
	Host string
	VM   VMID
	Tier TierKey
	Msg  string
}

func (v Violation) String() string { return v.Msg }

// Validate checks all allocation constraints against the catalog and
// returns every violation found. A configuration with no violations is a
// "candidate" in the paper's terminology; one with violations is an
// "intermediate".
func (c Config) Validate(cat *Catalog) []Violation {
	var out []Violation
	type hostLoad struct {
		cpu float64
		mem int
		n   int
	}
	loads := make(map[string]*hostLoad)
	for id, p := range c.placements {
		vm, ok := cat.VM(id)
		if !ok {
			out = append(out, Violation{VM: id, Msg: fmt.Sprintf("unknown VM %q placed", id)})
			continue
		}
		spec, ok := cat.Host(p.Host)
		if !ok {
			out = append(out, Violation{VM: id, Host: p.Host, Msg: fmt.Sprintf("VM %q placed on unknown host %q", id, p.Host)})
			continue
		}
		if !c.HostOn(p.Host) {
			out = append(out, Violation{VM: id, Host: p.Host, Msg: fmt.Sprintf("VM %q placed on powered-off host %q", id, p.Host)})
		}
		if p.CPUPct < cat.MinCPUPct-1e-9 {
			out = append(out, Violation{VM: id, Msg: fmt.Sprintf("VM %q CPU %.1f%% below minimum %.1f%%", id, p.CPUPct, cat.MinCPUPct)})
		}
		if p.CPUPct > spec.UsableCPUPct+1e-9 {
			out = append(out, Violation{VM: id, Msg: fmt.Sprintf("VM %q CPU %.1f%% above host usable %.1f%%", id, p.CPUPct, spec.UsableCPUPct)})
		}
		l := loads[p.Host]
		if l == nil {
			l = &hostLoad{}
			loads[p.Host] = l
		}
		l.cpu += p.CPUPct
		l.mem += vm.MemoryMB
		l.n++
	}
	hosts := make([]string, 0, len(loads))
	for h := range loads {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		l := loads[h]
		spec, ok := cat.Host(h)
		if !ok {
			continue
		}
		if l.cpu > spec.UsableCPUPct+1e-9 {
			out = append(out, Violation{Host: h, Msg: fmt.Sprintf("host %q CPU oversubscribed: %.1f%% > %.1f%%", h, l.cpu, spec.UsableCPUPct)})
		}
		if l.mem+spec.Dom0MemoryMB > spec.MemoryMB {
			out = append(out, Violation{Host: h, Msg: fmt.Sprintf("host %q memory oversubscribed: %d+%d MB > %d MB", h, l.mem, spec.Dom0MemoryMB, spec.MemoryMB)})
		}
		if l.n > spec.MaxVMs {
			out = append(out, Violation{Host: h, Msg: fmt.Sprintf("host %q has %d VMs, max %d", h, l.n, spec.MaxVMs)})
		}
	}
	for _, k := range cat.Tiers() {
		if !cat.TierRequired(k) {
			continue
		}
		if len(c.ActiveReplicas(cat, k)) == 0 {
			out = append(out, Violation{Tier: k, Msg: fmt.Sprintf("tier %s/%s has no active replica", k.App, k.Tier)})
		}
	}
	freqHosts := make([]string, 0, len(c.hostFreq))
	for h := range c.hostFreq {
		freqHosts = append(freqHosts, h)
	}
	sort.Strings(freqHosts)
	for _, h := range freqHosts {
		spec, ok := cat.Host(h)
		if !ok {
			out = append(out, Violation{Host: h, Msg: fmt.Sprintf("DVFS level set on unknown host %q", h)})
			continue
		}
		if !spec.HasDVFSLevel(c.hostFreq[h]) {
			out = append(out, Violation{Host: h, Msg: fmt.Sprintf("host %q does not support DVFS level %v", h, c.hostFreq[h])})
		}
	}
	return out
}

// IsCandidate reports whether the configuration satisfies all constraints.
func (c Config) IsCandidate(cat *Catalog) bool { return len(c.Validate(cat)) == 0 }

// String renders a compact human-readable description.
func (c Config) String() string {
	var b strings.Builder
	b.WriteString("hosts{")
	for i, h := range c.ActiveHosts() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(h)
	}
	b.WriteString("} vms{")
	for i, id := range c.ActiveVMs() {
		if i > 0 {
			b.WriteByte(' ')
		}
		p := c.placements[id]
		fmt.Fprintf(&b, "%s@%s:%.0f%%", id, p.Host, p.CPUPct)
	}
	b.WriteString("}")
	return b.String()
}
