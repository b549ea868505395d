package lqn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// The reference implementation of the numeric kernel: Model.compute as it
// stood before its loops were interchanged and its invariants hoisted —
// transaction-major pass 3 over a stored factor list, every quotient where
// the formula has it. It is kept verbatim (its scratch types and the
// [transaction][tier] demand table it read moved here with it) so that
// TestComputeMatchesReference can hold the kernel to it bit for bit.

type refReplica struct {
	vm   cluster.VMID
	host int
	frac float64
}

type refFactor struct {
	weight   float64
	frac     float64
	stretch  float64
	dom0Add  float64
	overload float64
}

type refTier struct {
	replicas []refReplica
	sumFrac  float64
	rho      float64
	served   bool
	factors  []refFactor
}

// refScratch is the reference's working state: solveScratch as it was.
type refScratch struct {
	vms    []vmPlace
	lambda []float64

	hostOn        []bool
	hostFreq      []float64
	hostAlloc     []float64
	hostScale     []float64
	dom0DemandCPU []float64
	hostVMUtil    []float64
	dom0Util      []float64
	hostCPUUtil   []float64

	tiers     [][]refTier
	txnRT     [][]float64
	meanRT    []float64
	saturated []bool

	// txnDemandSec[ai][i][ti] is the skeleton's old demand table.
	txnDemandSec [][][]float64
}

// newRefScratch copies the loaded state of sc (what Model.load filled) into a
// fresh reference scratch.
func newRefScratch(m *Model, sc *solveScratch) *refScratch {
	nh := len(sc.hostOn)
	ref := &refScratch{
		vms:           append([]vmPlace(nil), sc.vms...),
		lambda:        append([]float64(nil), sc.lambda...),
		hostOn:        append([]bool(nil), sc.hostOn...),
		hostFreq:      append([]float64(nil), sc.hostFreq...),
		hostAlloc:     make([]float64, nh),
		hostScale:     make([]float64, nh),
		dom0DemandCPU: make([]float64, nh),
		hostVMUtil:    make([]float64, nh),
		dom0Util:      make([]float64, nh),
		hostCPUUtil:   make([]float64, nh),
		tiers:         make([][]refTier, len(m.skel)),
		txnRT:         make([][]float64, len(m.skel)),
		meanRT:        make([]float64, len(m.skel)),
		saturated:     make([]bool, len(m.skel)),
		txnDemandSec:  make([][][]float64, len(m.skel)),
	}
	for ai := range m.skel {
		spec := m.skel[ai].spec
		ref.tiers[ai] = make([]refTier, len(spec.Tiers))
		ref.txnRT[ai] = make([]float64, len(spec.Txns))
		ref.txnDemandSec[ai] = make([][]float64, len(spec.Txns))
		for i, txn := range spec.Txns {
			row := make([]float64, len(spec.Tiers))
			for ti, t := range spec.Tiers {
				row[ti] = txn.DemandMS[t.Name] / 1000
			}
			ref.txnDemandSec[ai][i] = row
		}
	}
	return ref
}

func referenceCompute(m *Model, sc *refScratch, dom0Background map[string]float64, rtOnly bool) {
	hostNames := m.cat.HostNames()
	hostSpecs := m.cat.HostSpecs()
	for hi := range sc.hostAlloc {
		sc.hostAlloc[hi] = 0
		sc.hostScale[hi] = 0
		sc.dom0DemandCPU[hi] = 0
		sc.hostVMUtil[hi] = 0
		sc.dom0Util[hi] = 0
	}

	// Pass 0: hosts whose allocations are oversubscribed scale every VM's
	// effective rate proportionally, as Xen's credit scheduler would. This
	// keeps intermediate configurations (legal inputs during optimization)
	// from evaluating better than any physically feasible configuration.
	// The catalog's sorted VM universe visits each host's VMs in the same
	// order a sorted active-VM list would, so the per-host allocation folds
	// are bit-identical to that (allocating) formulation.
	for _, p := range sc.vms[:len(m.cat.VMIDs())] {
		if p.placed {
			sc.hostAlloc[p.host] += p.cpuPct
		}
	}
	for hi := range hostNames {
		if alloc := sc.hostAlloc[hi]; alloc > hostSpecs[hi].UsableCPUPct {
			sc.hostScale[hi] = hostSpecs[hi].UsableCPUPct / alloc
		}
	}

	// Pass 1: per-tier replica states, utilizations, Dom-0 demand per host.
	for ai := range m.names {
		sk := &m.skel[ai]
		lambda := sc.lambda[ai]
		for ti := range sk.tiers {
			tsk := &sk.tiers[ti]
			ts := &sc.tiers[ai][ti]
			ts.replicas = ts.replicas[:0]
			ts.sumFrac = 0
			ts.rho = 0
			ts.served = false
			for r, id := range tsk.vmIDs {
				p := sc.vms[tsk.vmIdx[r]]
				if !p.placed {
					continue
				}
				// DVFS scales the host's compute: a VM's effective rate
				// is its allocation times the frequency fraction.
				frac := p.cpuPct / 100 * p.freq
				if scale := sc.hostScale[p.host]; scale != 0 {
					frac *= scale
				}
				ts.replicas = append(ts.replicas, refReplica{vm: id, host: p.host, frac: frac})
				ts.sumFrac += frac
			}
			if lambda <= 0 || tsk.demandMS <= 0 {
				continue
			}
			if ts.sumFrac <= 0 {
				// No active replica for a tier with demand: the app cannot
				// serve requests; handled in pass 3 as saturation.
				continue
			}
			// Weighted load balancing yields equal per-replica utilization:
			// rho_i = (lambda*f_i/sumF)*D/f_i = lambda*D/sumF.
			ts.rho = lambda * (tsk.demandMS / 1000) / ts.sumFrac
			ts.served = true
			for _, rep := range ts.replicas {
				lambdaI := lambda * rep.frac / ts.sumFrac
				// Dom-0 demand: one visit per tier per request.
				sc.dom0DemandCPU[rep.host] += lambdaI * sk.dom0Sec
				if rtOnly {
					continue
				}
				used := lambdaI * (tsk.demandMS / 1000) // absolute CPU fraction
				if used > rep.frac {
					used = rep.frac // work-conserving cap at the allocation
				}
				sc.hostVMUtil[rep.host] += used
			}
		}
	}

	// Pass 2: Dom-0 utilizations per host (shared by all apps on the host).
	// The Dom-0 share slows with the host's DVFS frequency too.
	for hi, h := range hostNames {
		if !sc.hostOn[hi] {
			continue
		}
		share := cluster.Dom0CPUShare * sc.hostFreq[hi]
		sc.dom0Util[hi] = sc.dom0DemandCPU[hi]/share + dom0Background[h]
	}

	// Pass 3: per-application response times.
	for ai := range m.names {
		sk := &m.skel[ai]
		spec := sk.spec
		lambda := sc.lambda[ai]
		saturated := false

		// Residence multiplier per tier replica: 1/(1-rho) with soft cap,
		// plus Dom-0 residence on the replica's host.
		for ti := range spec.Tiers {
			tsk := &sk.tiers[ti]
			ts := &sc.tiers[ai][ti]
			ts.factors = ts.factors[:0]
			if lambda <= 0 || tsk.demandMS <= 0 {
				continue
			}
			if ts.sumFrac <= 0 {
				saturated = true
				// Unserved tier: charge the full overload penalty.
				ts.factors = append(ts.factors, refFactor{weight: 1, frac: 1, stretch: 1, overload: overloadPenaltySec})
				continue
			}
			for _, rep := range ts.replicas {
				rho := ts.rho
				var overload float64
				if rho > maxRho {
					saturated = true
					overload = (rho - maxRho) * overloadPenaltySec
					rho = maxRho
				}
				d0rho := sc.dom0Util[rep.host]
				if d0rho > maxRho {
					overload += (d0rho - maxRho) * overloadPenaltySec
					d0rho = maxRho
					saturated = true
				}
				dom0Visit := sk.dom0Sec / cluster.Dom0CPUShare / (1 - d0rho)
				ts.factors = append(ts.factors, refFactor{
					weight:   rep.frac / ts.sumFrac,
					frac:     rep.frac,
					stretch:  1 / (1 - rho),
					dom0Add:  dom0Visit,
					overload: overload,
				})
			}
		}

		// WAN penalty: the expected number of tier hops crossing zones,
		// with replicas weighted by their share of tier load.
		var crossZoneSec float64
		if lambda > 0 {
			for i := 0; i+1 < len(spec.Tiers); i++ {
				up := &sc.tiers[ai][i]
				down := &sc.tiers[ai][i+1]
				if up.sumFrac <= 0 || down.sumFrac <= 0 {
					continue
				}
				var p float64
				for _, ra := range up.replicas {
					for _, rb := range down.replicas {
						if m.hostZone[ra.host] != m.hostZone[rb.host] {
							p += (ra.frac / up.sumFrac) * (rb.frac / down.sumFrac)
						}
					}
				}
				crossZoneSec += p * crossZoneLatencyMS / 1000
			}
		}

		var meanRT float64
		for i := range spec.Txns {
			rt := spec.Txns[i].LatencyMS/1000 + crossZoneSec // CPU-free I/O and WAN waits
			for ti := range spec.Tiers {
				demand := sc.txnDemandSec[ai][i][ti]
				for _, f := range sc.tiers[ai][ti].factors {
					if f.frac <= 0 {
						continue
					}
					perVisit := (demand/f.frac)*f.stretch + f.dom0Add + f.overload
					rt += f.weight * perVisit
				}
			}
			sc.txnRT[ai][i] = rt
			meanRT += sk.probs[i] * rt
		}
		sc.meanRT[ai] = meanRT
		sc.saturated[ai] = saturated
	}

	if rtOnly {
		return
	}
	// Pass 4: host utilizations for the power model, as the busy fraction
	// of the host's current (DVFS-scaled) capacity.
	for hi := range hostNames {
		if !sc.hostOn[hi] {
			sc.hostCPUUtil[hi] = 0
			continue
		}
		freq := sc.hostFreq[hi]
		util := baseHostUtil + (sc.hostVMUtil[hi]+math.Min(sc.dom0Util[hi], 1)*cluster.Dom0CPUShare*freq)/freq
		if util > 1 {
			util = 1
		}
		sc.hostCPUUtil[hi] = util
	}
}

// sameCompute fails unless the kernel left exactly the reference's bits in
// everything a projection reads.
func sameCompute(t *testing.T, m *Model, what string, sc *solveScratch, ref *refScratch, rtOnly bool) {
	t.Helper()
	bits := math.Float64bits
	for ai, name := range m.names {
		if bits(sc.meanRT[ai]) != bits(ref.meanRT[ai]) || sc.saturated[ai] != ref.saturated[ai] {
			t.Fatalf("%s: app %s: (%v, %v), reference (%v, %v)", what, name, sc.meanRT[ai], sc.saturated[ai], ref.meanRT[ai], ref.saturated[ai])
		}
		for i := range ref.txnRT[ai] {
			if bits(sc.txnRT[ai][i]) != bits(ref.txnRT[ai][i]) {
				t.Fatalf("%s: app %s transaction %d: %v, reference %v", what, name, i, sc.txnRT[ai][i], ref.txnRT[ai][i])
			}
		}
		for ti := range ref.tiers[ai] {
			got, want := &sc.tiers[ai][ti], &ref.tiers[ai][ti]
			if bits(got.rho) != bits(want.rho) || bits(got.sumFrac) != bits(want.sumFrac) ||
				got.served != want.served || len(got.replicas) != len(want.replicas) {
				t.Fatalf("%s: app %s tier %d: %+v, reference %+v", what, name, ti, *got, *want)
			}
		}
	}
	for hi := range ref.dom0Util {
		if bits(sc.dom0Util[hi]) != bits(ref.dom0Util[hi]) {
			t.Fatalf("%s: host %d: Dom-0 utilization %v, reference %v", what, hi, sc.dom0Util[hi], ref.dom0Util[hi])
		}
		if !rtOnly && bits(sc.hostCPUUtil[hi]) != bits(ref.hostCPUUtil[hi]) {
			t.Fatalf("%s: host %d: CPU utilization %v, reference %v", what, hi, sc.hostCPUUtil[hi], ref.hostCPUUtil[hi])
		}
	}
}

// TestComputeMatchesReference holds the kernel to referenceCompute over the
// seeded inputs of TestSolveMatchesEvaluate plus a lab whose hosts all name
// one zone: response times only and in full, with and without Dom-0
// background load. The generator must reach what the kernel special-cases —
// unserved tiers, zero-rate applications, saturation of a tier and of Dom-0,
// a replica and a host outside the catalog — and the WAN shortcut is checked
// from both sides: forcing it changes nothing where no host names a zone and
// changes a result where one does (a host outside the catalog is in zone "",
// so a single named zone still has hops that cross).
func TestComputeMatchesReference(t *testing.T) {
	for _, lab := range []struct {
		name         string
		nApps, zones int
		named        bool // one zone, and the hosts name it
	}{
		{"2 apps", 2, 1, false},
		{"4 apps", 4, 1, false},
		{"2 apps, 2 zones", 2, 2, false},
		{"2 apps, 1 named zone", 2, 1, true},
	} {
		m := labModelZoned(t, lab.nApps, lab.zones, lab.zones > 1 || lab.named)
		shortcut := labModelZoned(t, lab.nApps, lab.zones, lab.zones > 1 || lab.named)
		shortcut.oneZone = true
		if m.oneZone != (lab.zones == 1 && !lab.named) {
			t.Fatalf("%s: oneZone = %v", lab.name, m.oneZone)
		}
		seed := int64(42 + 10*lab.nApps + lab.zones) // TestSolveMatchesEvaluate's
		if lab.named {
			seed += 100
		}
		rng := rand.New(rand.NewSource(seed))
		nCat := len(m.cat.VMIDs())
		sink := len(m.cat.HostNames())
		var unserved, zeroRate, saturated, dom0Saturated, offCatalogVM, offCatalogHost, shortcutDiffers int
		for c := 0; c < 300; c++ {
			cfg, load, _ := randomCase(rng, m)
			background := make(map[string]float64)
			for _, h := range m.cat.HostNames() {
				if rng.Intn(3) == 0 {
					background[h] = 1.2 * rng.Float64()
				}
			}
			for _, bg := range []map[string]float64{nil, background} {
				for _, rtOnly := range []bool{true, false} {
					what := fmt.Sprintf("%s, case %d (background %v, rtOnly %v)", lab.name, c, bg != nil, rtOnly)
					sc, err := m.load(cfg, nil, load)
					if err != nil {
						t.Fatal(err)
					}
					ref := newRefScratch(m, sc)
					m.compute(sc, bg, rtOnly)
					referenceCompute(m, ref, bg, rtOnly)
					sameCompute(t, m, what, sc, ref, rtOnly)
					m.scratch.Put(sc)

					for ai := range m.skel {
						if ref.lambda[ai] <= 0 {
							zeroRate++
							continue
						}
						if ref.saturated[ai] {
							saturated++
						}
						for ti := range ref.tiers[ai] {
							if ref.tiers[ai][ti].sumFrac <= 0 {
								unserved++
							}
						}
					}
					for _, u := range ref.dom0Util {
						if u > maxRho {
							dom0Saturated++
						}
					}
					for vi, p := range ref.vms {
						if p.placed && vi >= nCat {
							offCatalogVM++
						}
						if p.placed && p.host == sink {
							offCatalogHost++
						}
					}

					sc, err = shortcut.load(cfg, nil, load)
					if err != nil {
						t.Fatal(err)
					}
					shortcut.compute(sc, bg, rtOnly)
					for ai := range ref.meanRT {
						if math.Float64bits(sc.meanRT[ai]) != math.Float64bits(ref.meanRT[ai]) {
							shortcutDiffers++
						}
					}
					shortcut.scratch.Put(sc)
				}
			}
		}
		if unserved == 0 || zeroRate == 0 || saturated == 0 || dom0Saturated == 0 || offCatalogVM == 0 || offCatalogHost == 0 {
			t.Errorf("%s: generator drew %d unserved tiers, %d zero-rate and %d saturated applications, %d saturated Dom-0s, %d off-catalog VMs, %d VMs on an off-catalog host; want all",
				lab.name, unserved, zeroRate, saturated, dom0Saturated, offCatalogVM, offCatalogHost)
		}
		if m.oneZone != (shortcutDiffers == 0) {
			t.Errorf("%s: skipping the WAN pair loop moved %d response times, oneZone = %v", lab.name, shortcutDiffers, m.oneZone)
		}
	}
}
