package core

import (
	"fmt"
	"math"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// Distance weights: roughly proportional to the transient cost of the
// action that repairs each kind of mismatch, so that the shaped cost-to-go
// refunds structural progress (host power, placement) in proportion to what
// reaching it costs, instead of letting cheap CPU plateaus dominate.
const (
	distHostWeight  = 1.5  // start/stop host per mismatched power state
	distPlaceWeight = 1.0  // migration or replica add/remove per VM
	distCPUWeight   = 0.02 // per 10% CPU-step gap, weighted by ideal size
	distFreqWeight  = 0.02 // DVFS transitions are near-free
)

// distancer measures how far configurations are from one fixed ideal
// configuration, following §IV-B: per-VM CPU differences weighted by the
// VM's relative size in the ideal configuration, plus placement and host
// power-state mismatch counts. The search uses the distance both to prune
// expansions (Self-Aware) and to shape its cost-to-go.
//
// The distance is a floating-point fold the search compares exactly (the
// prune sort, the heap), so its order is fixed: for every VM active in the
// ideal, in catalog order, a placement term then a CPU term; for every other
// VM a placement term then a +0.0 CPU term; then the host power and
// frequency mismatch counts, weighted, in one addition. load computes one
// parent's terms from its view and records the running sum before each VM's
// terms; child resumes that fold at the one VM an action changes, or adds a
// host action's mismatches to the VM sum. A term that does not apply is
// +0.0, which leaves a non-negative running sum bit-identical, so every
// distance equals the reference fold over the built configuration
// (ConfigDistance in distance_test.go) to the bit.
type distancer struct {
	// ideal is the ideal configuration; cpuWeight holds, per catalog VM
	// active in it, distCPUWeight times the VM's relative size there.
	ideal     cluster.View
	cpuWeight []float64
	// vms is the fold order — catalog indices of the VMs active in the
	// ideal, then of the rest — and pos each catalog VM's place in it.
	vms []int32
	pos []int32

	// The loaded parent: its terms per catalog VM, the running sum before
	// each fold position (pre[len(vms)]: the VM sum) and mismatch counts.
	place, cpu  []float64
	pre         []float64
	power, freq int
}

// reset points the distancer at a new ideal configuration.
func (d *distancer) reset(cat *cluster.Catalog, ideal cluster.Config) error {
	iv := &d.ideal
	if !iv.Load(cat, ideal) {
		return fmt.Errorf("core: ideal configuration does not fit the catalog")
	}
	n := len(iv.VMHost)
	d.cpuWeight = sized(d.cpuWeight, n)
	d.place = sized(d.place, n)
	d.cpu = sized(d.cpu, n)
	d.pre = sized(d.pre, n+1)
	d.pos = sized(d.pos, n)
	d.vms = d.vms[:0]
	var totalIdeal float64
	for i, h := range iv.VMHost {
		if h >= 0 {
			d.vms = append(d.vms, int32(i))
			totalIdeal += iv.VMCPU[i]
		}
	}
	active := len(d.vms)
	for _, i := range d.vms {
		// Relative ideal size (§IV-B's "2 times more weight to VMi than
		// VMj" rule).
		w := 1.0
		if totalIdeal > 0 {
			w = iv.VMCPU[i] / totalIdeal * float64(active)
		}
		d.cpuWeight[i] = distCPUWeight * w
	}
	for i, h := range iv.VMHost {
		if h < 0 {
			d.vms = append(d.vms, int32(i))
		}
	}
	for j, i := range d.vms {
		d.pos[i] = int32(j)
	}
	return nil
}

// vmTerms returns the placement and CPU terms of the i-th catalog VM when it
// sits on host (cluster.Dormant: not placed) with the given allocation.
func (d *distancer) vmTerms(i int, host int32, cpu float64) (place, cpuTerm float64) {
	idealHost := d.ideal.VMHost[i]
	switch {
	case idealHost < 0:
		if host >= 0 {
			place = distPlaceWeight // active here, dormant in the ideal: one removal
		}
		return place, 0
	case host < 0:
		return distPlaceWeight, 0 // dormant here, active in the ideal: one addition
	}
	if host != idealHost {
		place = distPlaceWeight // one migration
	}
	return place, d.cpuWeight[i] * math.Abs(cpu-d.ideal.VMCPU[i]) / 10
}

// hostTerms returns a host's power and frequency mismatches (0 or 1 each).
// Hosts off on both sides count for nothing, whatever DVFS level they
// remember.
func (d *distancer) hostTerms(h int, on bool, freq float64) (power, frequency int) {
	ion := d.ideal.HostOn[h]
	if !on && !ion {
		return 0, 0
	}
	if on != ion {
		power = 1
	}
	if freq != d.ideal.HostFreq[h] {
		frequency = 1
	}
	return power, frequency
}

// withHosts adds the weighted mismatch counts to a VM sum. They are integer
// counts folded in once: without the power term, starting a host toward the
// ideal would look like zero progress and the search could never justify
// it.
func withHosts(vmSum float64, power, freq int) float64 {
	return vmSum + (float64(power)*distHostWeight + float64(freq)*distFreqWeight)
}

// load takes v as the parent configuration and returns its distance.
func (d *distancer) load(v *cluster.View) float64 {
	for i, h := range v.VMHost {
		d.place[i], d.cpu[i] = d.vmTerms(i, h, v.VMCPU[i])
	}
	d.power, d.freq = 0, 0
	for h, on := range v.HostOn {
		p, f := d.hostTerms(h, on, v.HostFreq[h])
		d.power += p
		d.freq += f
	}
	// A VM dormant in the ideal has a +0.0 CPU term, so every position adds
	// both terms.
	var dist float64
	for j, i := range d.vms {
		d.pre[j] = dist
		dist += d.place[i]
		dist += d.cpu[i]
	}
	d.pre[len(d.vms)] = dist
	return withHosts(dist, d.power, d.freq)
}

// child returns the distance of the loaded parent after the staged action:
// the parent's fold resumed at the one VM the action changes, with that
// VM's terms recomputed, or the parent's VM sum with the one host's
// mismatches recomputed.
func (d *distancer) child(v *cluster.View, s *cluster.Staged) float64 {
	if s.VM >= 0 {
		place, cpu := d.vmTerms(int(s.VM), s.NewHost, s.NewCPU)
		j := int(d.pos[s.VM])
		dist := d.pre[j] + place
		dist += cpu
		for _, i := range d.vms[j+1:] {
			dist += d.place[i]
			dist += d.cpu[i]
		}
		return withHosts(dist, d.power, d.freq)
	}
	h := int(s.Host)
	on, freq := v.HostOn[h], v.HostFreq[h]
	oldPower, oldFreq := d.hostTerms(h, on, freq)
	switch s.Kind {
	case cluster.ActionStartHost, cluster.ActionStopHost:
		on = s.Kind == cluster.ActionStartHost
	case cluster.ActionSetDVFS:
		freq = s.Freq
	}
	newPower, newFreq := d.hostTerms(h, on, freq)
	return withHosts(d.pre[len(d.vms)], d.power-oldPower+newPower, d.freq-oldFreq+newFreq)
}
