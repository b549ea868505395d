// Package lqn implements the layered queuing network performance model of
// §III-A: application tiers are software queues served by processor-sharing
// CPU stations whose rate is the VM's CPU allocation, inter-tier
// interactions are synchronous calls, and Xen's virtualization overhead is
// charged to a per-host Dom-0 station. Given a configuration and a workload
// the model predicts per-application mean response time, per-transaction
// response times, per-VM and per-host CPU utilization.
//
// The model is an open product-form approximation: each replica is an
// M/G/1-PS station with service rate proportional to its CPU allocation,
// load is balanced across replicas proportionally to allocation, and a
// request's end-to-end response time is the sum of its residence times at
// every tier it visits plus Dom-0 residence on each visited host.
//
// Overload does not produce infinities: utilizations are softly capped and
// an overload penalty grows linearly in the excess demand, mimicking the
// bounded response times a closed population of clients produces on a
// saturated testbed. Results flag saturation explicitly.
package lqn

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

// Solver constants. The Dom-0 share is cluster.Dom0CPUShare.
const (
	// maxRho is the utilization soft cap used in residence-time formulas.
	maxRho = 0.97
	// overloadPenaltySec is the response-time penalty per unit of demand
	// exceeding the soft cap, keeping overload finite and monotone, as a
	// closed client population does in practice.
	overloadPenaltySec = 4.0
	// baseHostUtil is the utilization floor of a powered-on host from OS
	// housekeeping.
	baseHostUtil = 0.02
	// crossZoneLatencyMS is the round-trip penalty added per tier hop that
	// crosses data-center zones (the §VI WAN extension).
	crossZoneLatencyMS = 40
)

// Model evaluates the layered queuing network for a fixed set of
// applications. Construct with NewModel.
//
// Thread-safety contract: a Model is immutable after construction —
// Evaluate, Solve and an open Session read the application specs and the
// catalog but keep all iteration state (per-tier utilizations, response
// times, host aggregations) in a pooled scratch held per call or per
// session, so any number of goroutines may use them concurrently on one
// Model with distinct or identical inputs;
// TestModelEvaluateConcurrent pins it under -race.
type Model struct {
	apps map[string]*app.Spec
	// names holds the application names in sorted order. The solver iterates
	// applications through it, never through the apps map: several passes
	// accumulate floating-point sums per host across applications, and map
	// iteration order would make those sums differ in their last bits from
	// run to run.
	names []string
	cat   *cluster.Catalog

	// skel holds the per-application solver inputs that depend only on the
	// specs — mix probabilities, mean tier demands, per-transaction demand
	// vectors, VM identities — aligned with names. The solve is closed-form
	// (one pass per application, no fixed-point iteration), so once these
	// are precomputed the only per-call state left is the scratch below.
	skel []appSkel
	// hostZone numbers each catalog host's zone, aligned with
	// Catalog.HostNames plus one trailing slot for hosts outside the catalog
	// (zone "", like Catalog.ZoneOf reports them). oneZone says they all
	// share a number — no catalog host names a zone — so no tier hop can
	// cross one and the WAN term is exactly +0.
	hostZone []int
	oneZone  bool
	// slots is the VM universe of the dense state: Catalog.VMIDs, then every
	// tier replica the catalog does not list (legal solver input; such a VM
	// serves its tier but is left out of its host's allocation fold).
	slots []cluster.VMID
	// scratch pools per-solve working state (dense per-host and per-VM
	// arrays, per-tier replica/factor buffers) so a solve or a session
	// allocates nothing and Evaluate only the Result it returns.
	scratch sync.Pool
}

// appSkel is the precomputed, read-only solver input for one application.
type appSkel struct {
	spec  *app.Spec
	probs []float64 // normalized transaction mix, aligned with spec.Txns
	// dom0Sec is the Dom-0 CPU seconds consumed per tier visit; dom0Visit is
	// the unloaded Dom-0 residence of one visit, dom0Sec/cluster.Dom0CPUShare.
	dom0Sec   float64
	dom0Visit float64
	tiers     []tierSkel
	// latencySec is each transaction's CPU-free wait in seconds
	// (spec.Txns[i].LatencyMS/1000), aligned with spec.Txns.
	latencySec []float64
}

// tierSkel is the fixed part of one tier: its mean demand and the identity
// of every potential replica VM.
type tierSkel struct {
	demandMS  float64
	demandSec float64 // demandMS/1000
	vmIDs     []cluster.VMID
	// vmIdx is each replica's position in Model.slots.
	vmIdx []int
	// txnDemandSec is every transaction's CPU demand on this tier in seconds
	// (spec.Txns[i].DemandMS[tier]/1000), aligned with spec.Txns: the
	// per-transaction table transposed, so pass 3 streams one tier's row.
	txnDemandSec []float64
}

// replicaState captures one active replica's allocation for a tier. It
// carries no VM name: Evaluate reads those off the skeleton.
type replicaState struct {
	host int     // index into the per-host arrays
	frac float64 // CPU allocation as fraction of reference capacity
}

// tierScratch is the per-solve mutable state of one tier.
type tierScratch struct {
	replicas []replicaState
	sumFrac  float64
	rho      float64
	// served marks a tier that had load, demand and an active replica: the
	// tiers whose replicas report a VM utilization.
	served bool
}

// vmPlace is one VM slot's placement in the dense state.
type vmPlace struct {
	host   int
	cpuPct float64
	freq   float64 // DVFS fraction of the VM's host
	placed bool
}

// solveScratch is one solve's working state, pooled on the model: the dense
// configuration load fills (vms, hostOn, hostFreq, lambda) and everything
// compute derives from it. The per-host arrays are aligned with
// Catalog.HostNames and carry one extra trailing slot that absorbs
// placements on hosts the catalog does not know (legal solver input; such
// hosts have no Dom-0 station, zone "" and draw no power). Everything the
// projections need is left here by compute.
type solveScratch struct {
	sol Solution // the steady-only projection, slices into this scratch

	vms   []vmPlace // aligned with Model.slots
	saved []vmPlace // a session's committed vms, what Restore returns to

	lambda []float64 // request rate per application, aligned with names

	hostOn        []bool
	hostFreq      []float64
	hostAlloc     []float64
	hostScale     []float64 // 0 = not oversubscribed
	dom0DemandCPU []float64 // absolute CPU fraction demanded by Dom-0 work
	hostVMUtil    []float64 // absolute CPU fraction used by VMs
	dom0Util      []float64
	hostCPUUtil   []float64

	tiers     [][]tierScratch // aligned with skel / spec.Tiers
	txnRT     [][]float64     // aligned with skel / spec.Txns
	meanRT    []float64       // aligned with names
	saturated []bool
}

func (m *Model) newScratch() *solveScratch {
	nh := len(m.cat.HostNames()) + 1
	sc := &solveScratch{
		vms:           make([]vmPlace, len(m.slots)),
		saved:         make([]vmPlace, len(m.slots)),
		lambda:        make([]float64, len(m.skel)),
		hostOn:        make([]bool, nh),
		hostFreq:      make([]float64, nh),
		hostAlloc:     make([]float64, nh),
		hostScale:     make([]float64, nh),
		dom0DemandCPU: make([]float64, nh),
		hostVMUtil:    make([]float64, nh),
		dom0Util:      make([]float64, nh),
		hostCPUUtil:   make([]float64, nh),
		tiers:         make([][]tierScratch, len(m.skel)),
		txnRT:         make([][]float64, len(m.skel)),
		meanRT:        make([]float64, len(m.skel)),
		saturated:     make([]bool, len(m.skel)),
	}
	for ai := range m.skel {
		sc.tiers[ai] = make([]tierScratch, len(m.skel[ai].tiers))
		for ti := range sc.tiers[ai] {
			// At full capacity: pass 1 fills the list in place.
			sc.tiers[ai][ti].replicas = make([]replicaState, 0, len(m.skel[ai].tiers[ti].vmIdx))
		}
		sc.txnRT[ai] = make([]float64, len(m.skel[ai].spec.Txns))
	}
	sc.sol = Solution{
		MeanRTSec:   sc.meanRT,
		Saturated:   sc.saturated,
		HostOn:      sc.hostOn[:nh-1],
		HostFreq:    sc.hostFreq[:nh-1],
		HostCPUUtil: sc.hostCPUUtil[:nh-1],
		sc:          sc,
	}
	return sc
}

// NewModel builds a model over the given applications and catalog. The
// specs' demands, mix, and tier structure are baked into per-application
// solver skeletons here: mutating a spec after construction (ScaleDemands)
// is not observed — rebuild the model, as calibration does.
func NewModel(cat *cluster.Catalog, apps []*app.Spec) (*Model, error) {
	m := &Model{
		apps: make(map[string]*app.Spec, len(apps)),
		cat:  cat,
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("lqn: %w", err)
		}
		if _, dup := m.apps[a.Name]; dup {
			return nil, fmt.Errorf("lqn: duplicate application %q", a.Name)
		}
		m.apps[a.Name] = a
		m.names = append(m.names, a.Name)
	}
	sort.Strings(m.names)
	m.slots = slices.Clone(cat.VMIDs())
	for _, name := range m.names {
		spec := m.apps[name]
		sk := appSkel{
			spec:       spec,
			probs:      spec.MixProbabilities(),
			dom0Sec:    spec.Dom0OverheadMS / 1000,
			tiers:      make([]tierSkel, len(spec.Tiers)),
			latencySec: make([]float64, len(spec.Txns)),
		}
		sk.dom0Visit = sk.dom0Sec / cluster.Dom0CPUShare
		for i, txn := range spec.Txns {
			sk.latencySec[i] = txn.LatencyMS / 1000
		}
		demands := make([]float64, len(spec.Tiers)*len(spec.Txns))
		for ti, t := range spec.Tiers {
			ts := tierSkel{demandMS: spec.MeanDemandMS(t.Name)}
			ts.demandSec = ts.demandMS / 1000
			for r := 0; r < t.MaxReplicas; r++ {
				id := spec.VMIDFor(t.Name, r)
				vi, ok := cat.VMIndex(id)
				if !ok {
					vi = len(m.slots)
					m.slots = append(m.slots, id)
				}
				ts.vmIDs = append(ts.vmIDs, id)
				ts.vmIdx = append(ts.vmIdx, vi)
			}
			ts.txnDemandSec, demands = demands[:len(spec.Txns):len(spec.Txns)], demands[len(spec.Txns):]
			for i, txn := range spec.Txns {
				ts.txnDemandSec[i] = txn.DemandMS[t.Name] / 1000
			}
			sk.tiers[ti] = ts
		}
		m.skel = append(m.skel, sk)
	}
	zoneNo := map[string]int{"": 0}
	for _, spec := range cat.HostSpecs() {
		if _, ok := zoneNo[spec.Zone]; !ok {
			zoneNo[spec.Zone] = len(zoneNo)
		}
		m.hostZone = append(m.hostZone, zoneNo[spec.Zone])
	}
	m.hostZone = append(m.hostZone, zoneNo[""])
	m.oneZone = len(zoneNo) == 1
	m.scratch.New = func() any { return m.newScratch() }
	return m, nil
}

// Apps returns the specs the model was built with, keyed by name.
func (m *Model) Apps() map[string]*app.Spec { return m.apps }

// AppNames returns the application names in sorted order: the order of
// every per-application slice the model hands out. The slice is shared;
// callers must not mutate it.
func (m *Model) AppNames() []string { return m.names }

// Catalog returns the catalog the model was built with.
func (m *Model) Catalog() *cluster.Catalog { return m.cat }

// AppResult is the model's prediction for one application.
type AppResult struct {
	// MeanRTSec is the mix-weighted mean end-to-end response time in
	// seconds.
	MeanRTSec float64
	// TxnRTSec maps transaction name to its mean response time in seconds.
	TxnRTSec map[string]float64
	// Saturated reports that at least one tier exceeded the utilization
	// soft cap (demand beyond capacity).
	Saturated bool
	// TierUtil maps tier name to the utilization of its replicas (demand
	// over allocated capacity, may exceed 1 when saturated).
	TierUtil map[string]float64
}

// HostResult is the model's prediction for one host.
type HostResult struct {
	// CPUUtil is the total physical CPU utilization in [0,1], including
	// Dom-0 and the housekeeping floor. It drives the power model.
	CPUUtil float64
	// Dom0Util is the utilization of the Dom-0 share in [0,...], >1 when
	// the hypervisor domain itself saturates (e.g. during migrations).
	Dom0Util float64
}

// Result is a full model evaluation.
type Result struct {
	Apps  map[string]AppResult
	Hosts map[string]HostResult
	// VMUtil maps VM to the utilization of its own allocation in [0,...].
	VMUtil map[cluster.VMID]float64
}

// MeanRTSec returns the predicted mean response time for an application, or
// +Inf if the app is unknown.
func (r *Result) MeanRTSec(appName string) float64 {
	if a, ok := r.Apps[appName]; ok {
		return a.MeanRTSec
	}
	return math.Inf(1)
}

// Solution is the steady-only projection of one solve: what the controller
// needs to price a configuration (Eq. 1 and 2) and nothing else. The
// per-application slices are in AppNames order, the per-host slices in
// Catalog.HostNames order. A Solution borrows the model's pooled solver
// state: read it, then hand it back with Release; never retain its slices.
type Solution struct {
	// MeanRTSec is each application's mix-weighted mean response time.
	MeanRTSec []float64
	// Saturated marks applications with a tier beyond the soft cap.
	Saturated []bool
	// HostOn, HostFreq and HostCPUUtil are each catalog host's power state,
	// DVFS fraction and total CPU utilization (zero for a host that is
	// off): the power model's inputs.
	HostOn      []bool
	HostFreq    []float64
	HostCPUUtil []float64

	sc *solveScratch
}

// Solve predicts steady-state performance for the configuration cfg would
// be after the optional delta d (nil: cfg itself) — the overlay lets a
// caller score a candidate one mutation away from cfg without building it.
// It runs the same solver as Evaluate and allocates nothing.
func (m *Model) Solve(cfg cluster.Config, d *cluster.Delta, load map[string]float64) (*Solution, error) {
	sc, err := m.load(cfg, d, load)
	if err != nil {
		return nil, err
	}
	m.compute(sc, nil, false)
	return &sc.sol, nil
}

// Release returns a Solution's solver state to the model's pool.
func (m *Model) Release(s *Solution) { m.scratch.Put(s.sc) }

// Evaluate predicts performance for configuration cfg under the workload
// (requests/sec per application). dom0Background adds extra utilization (in
// fraction of the Dom-0 share) to specific hosts, modeling transient load
// such as live migrations. Unknown applications in load are an error;
// applications without load default to zero rate. The Result is the rich
// projection of the solve Solve exposes in steady-only form.
func (m *Model) Evaluate(cfg cluster.Config, load map[string]float64, dom0Background map[string]float64) (*Result, error) {
	sc, err := m.load(cfg, nil, load)
	if err != nil {
		return nil, err
	}
	m.compute(sc, dom0Background, false)
	res := &Result{
		Apps:   make(map[string]AppResult, len(m.apps)),
		Hosts:  make(map[string]HostResult, len(m.cat.HostNames())),
		VMUtil: make(map[cluster.VMID]float64),
	}
	for ai, name := range m.names {
		spec := m.skel[ai].spec
		ar := AppResult{
			MeanRTSec: sc.meanRT[ai],
			TxnRTSec:  make(map[string]float64, len(spec.Txns)),
			Saturated: sc.saturated[ai],
			TierUtil:  make(map[string]float64, len(spec.Tiers)),
		}
		for ti, t := range spec.Tiers {
			ts := &sc.tiers[ai][ti]
			ar.TierUtil[t.Name] = ts.rho
			if ts.served {
				tsk := &m.skel[ai].tiers[ti]
				for r, vi := range tsk.vmIdx {
					if sc.vms[vi].placed {
						res.VMUtil[tsk.vmIDs[r]] = ts.rho
					}
				}
			}
		}
		for i, txn := range spec.Txns {
			ar.TxnRTSec[txn.Name] = sc.txnRT[ai][i]
		}
		res.Apps[name] = ar
	}
	for hi, h := range m.cat.HostNames() {
		if !sc.hostOn[hi] {
			res.Hosts[h] = HostResult{}
			continue
		}
		res.Hosts[h] = HostResult{CPUUtil: sc.hostCPUUtil[hi], Dom0Util: sc.dom0Util[hi]}
	}
	m.scratch.Put(sc)
	return res, nil
}

// Session holds one loaded solver state open so that many configurations a
// few placement changes apart are scored without re-reading any of them:
// OpenView loads a view's configuration once, SetCPU / Move / Unplace patch
// single VMs by catalog index, Solve runs the response-time half of the
// solver on the patched state, Restore drops the patches made since the last
// Commit, and Close hands the state back to the model's pool. This is how the Perf-Pwr reduction scores
// its candidates. A Session belongs to one goroutine; any number may be open
// on one Model at a time.
type Session struct {
	m  *Model
	sc *solveScratch
}

// HostSlot is a host as a Session addresses it, resolved once with
// Session.Host.
type HostSlot struct {
	idx  int
	freq float64
}

// Host resolves the host-th catalog host of the opened configuration for
// Move.
func (s *Session) Host(host int) HostSlot { return HostSlot{idx: host, freq: s.sc.hostFreq[host]} }

// SetCPU changes the allocation of a placed VM, given by its catalog index.
func (s *Session) SetCPU(vm int, cpuPct float64) { s.sc.vms[vm].cpuPct = cpuPct }

// Move puts a placed VM on another host, keeping its allocation.
func (s *Session) Move(vm int, h HostSlot) {
	p := &s.sc.vms[vm]
	p.host, p.freq = h.idx, h.freq
}

// Unplace deactivates a VM.
func (s *Session) Unplace(vm int) { s.sc.vms[vm] = vmPlace{} }

// Solve evaluates the patched state's response times: each application's
// mean and saturation flag in AppNames order, bit-identical to what Solve
// reports for the same configuration built. Host utilisations and power
// inputs are not derived. The slices are the session's; they are overwritten
// by the next Solve.
func (s *Session) Solve() (meanRTSec []float64, saturated []bool) {
	s.m.compute(s.sc, nil, true)
	return s.sc.meanRT, s.sc.saturated
}

// Commit makes the current patches the state Restore returns to.
func (s *Session) Commit() { copy(s.sc.saved, s.sc.vms) }

// Restore drops every patch made since the last Commit (or OpenView).
func (s *Session) Restore() { copy(s.sc.vms, s.sc.saved) }

// Close returns the session's state to the model's pool; the session must
// not be used afterwards.
func (s *Session) Close() {
	s.m.scratch.Put(s.sc)
	s.sc = nil
}

// hostSlot resolves a host name against the loaded host arrays: hosts
// outside the catalog share the trailing sink slot and carry their own
// frequency.
func (m *Model) hostSlot(sc *solveScratch, cfg cluster.Config, d *cluster.Delta, name string) HostSlot {
	if hi, known := m.cat.HostIndex(name); known {
		return HostSlot{idx: hi, freq: sc.hostFreq[hi]}
	}
	return HostSlot{idx: len(sc.hostFreq) - 1, freq: cfg.HostFreqOver(d, name)}
}

// SolveView is Solve for the configuration loaded in v, a view over the
// model's catalog: the dense state is filled from the view's arrays instead
// of a configuration's maps, and the same compute runs on it, so the Solution
// is Solve's for that configuration bit for bit. A view cannot place a VM
// outside the catalog; such a replica reads as not placed.
func (m *Model) SolveView(v *cluster.View, load map[string]float64) (*Solution, error) {
	sc, err := m.loadView(v, load)
	if err != nil {
		return nil, err
	}
	m.compute(sc, nil, false)
	return &sc.sol, nil
}

// OpenView loads the configuration loaded in v under the workload into a
// pooled solver state, as SolveView does, and returns the session over it.
// Unknown applications in load are an error, as in Solve.
func (m *Model) OpenView(v *cluster.View, load map[string]float64) (*Session, error) {
	sc, err := m.loadView(v, load)
	if err != nil {
		return nil, err
	}
	copy(sc.saved, sc.vms)
	return &Session{m: m, sc: sc}, nil
}

// loadView is load for the configuration loaded in v, read off the view's
// arrays.
func (m *Model) loadView(v *cluster.View, load map[string]float64) (*solveScratch, error) {
	if len(v.VMHost) != len(m.cat.VMIDs()) || len(v.HostOn) != len(m.cat.HostNames()) {
		return nil, fmt.Errorf("lqn: view is not over the model's catalog")
	}
	sc, err := m.workload(load)
	if err != nil {
		return nil, err
	}
	copy(sc.hostOn, v.HostOn)
	copy(sc.hostFreq, v.HostFreq)
	clear(sc.vms)
	for vi, h := range v.VMHost {
		if h >= 0 {
			sc.vms[vi] = vmPlace{host: int(h), cpuPct: v.VMCPU[vi], freq: v.HostFreq[h], placed: true}
		}
	}
	return sc, nil
}

// workload checks the workload and reads it into a scratch drawn from the
// pool: the part of a load that does not depend on the configuration.
func (m *Model) workload(load map[string]float64) (*solveScratch, error) {
	for name := range load {
		if _, ok := m.apps[name]; !ok {
			return nil, fmt.Errorf("lqn: workload references unknown application %q", name)
		}
	}
	sc := m.scratch.Get().(*solveScratch)
	for ai, name := range m.names {
		sc.lambda[ai] = load[name]
	}
	return sc, nil
}

// load is the first half of a solve: it checks the workload and reads it,
// and the configuration through the delta overlay, into the dense state of a
// scratch drawn from the pool. Nothing after it touches a string-keyed map of
// either.
func (m *Model) load(cfg cluster.Config, d *cluster.Delta, load map[string]float64) (*solveScratch, error) {
	sc, err := m.workload(load)
	if err != nil {
		return nil, err
	}
	for hi, h := range m.cat.HostNames() {
		sc.hostOn[hi] = cfg.HostOnOver(d, h)
		sc.hostFreq[hi] = cfg.HostFreqOver(d, h)
	}
	for vi, id := range m.slots {
		sc.vms[vi] = vmPlace{}
		if p, ok := cfg.PlacementOver(d, id); ok {
			h := m.hostSlot(sc, cfg, d, p.Host)
			sc.vms[vi] = vmPlace{host: h.idx, cpuPct: p.CPUPct, freq: h.freq, placed: true}
		}
	}
	return sc, nil
}

// compute is the second half, the model's only numeric implementation: from
// the loaded dense state it leaves every per-application, per-transaction,
// per-tier and per-host quantity in the scratch for the caller to project
// (Evaluate, Solve, Session.Solve). rtOnly stops at the response times: the
// per-host VM utilisation and pass 4, which only the power model reads, are
// skipped. Every floating-point fold runs in model order (sorted
// applications, tiers in call order, replicas and VMs in ID order, hosts in
// catalog order), so results are bit-identical from run to run.
//
// It is written so that nothing is evaluated more often than it changes:
// what the specs fix sits in the skeleton, what a tier fixes is
// computed once per tier, and the innermost loop of pass 3 runs over the
// transactions. Every expression keeps the operands, the order and the
// statement shape of the plain formulation referenceCompute keeps in the
// tests, so each result keeps its bits on every architecture.
func (m *Model) compute(sc *solveScratch, dom0Background map[string]float64, rtOnly bool) {
	hostNames := m.cat.HostNames()
	hostSpecs := m.cat.HostSpecs()
	clear(sc.hostAlloc)
	clear(sc.hostScale)
	clear(sc.dom0DemandCPU)
	clear(sc.hostVMUtil)
	clear(sc.dom0Util)

	// Pass 0: hosts whose allocations are oversubscribed scale every VM's
	// effective rate proportionally, as Xen's credit scheduler would. This
	// keeps intermediate configurations (legal inputs during optimization)
	// from evaluating better than any physically feasible configuration.
	// The catalog's sorted VM universe visits each host's VMs in the same
	// order a sorted active-VM list would, so the per-host allocation folds
	// are bit-identical to that (allocating) formulation.
	catVMs := sc.vms[:len(m.cat.VMIDs())]
	for i := range catVMs {
		if p := &catVMs[i]; p.placed {
			sc.hostAlloc[p.host] += p.cpuPct
		}
	}
	for hi := range hostSpecs {
		if alloc, usable := sc.hostAlloc[hi], hostSpecs[hi].UsableCPUPct; alloc > usable {
			sc.hostScale[hi] = usable / alloc
		}
	}

	// Pass 1: per-tier replica states, utilizations, Dom-0 demand per host.
	for ai := range m.skel {
		sk := &m.skel[ai]
		lambda := sc.lambda[ai]
		tiers := sc.tiers[ai]
		for ti := range sk.tiers {
			tsk := &sk.tiers[ti]
			ts := &tiers[ti]
			replicas := ts.replicas[:len(tsk.vmIdx)]
			n := 0
			var sumFrac float64
			for _, vi := range tsk.vmIdx {
				p := &sc.vms[vi]
				if !p.placed {
					continue
				}
				// DVFS scales the host's compute: a VM's effective rate
				// is its allocation times the frequency fraction.
				frac := p.cpuPct / 100 * p.freq
				if scale := sc.hostScale[p.host]; scale != 0 {
					frac *= scale
				}
				replicas[n] = replicaState{host: p.host, frac: frac}
				n++
				sumFrac += frac
			}
			replicas = replicas[:n]
			ts.replicas = replicas
			ts.sumFrac = sumFrac
			ts.rho = 0
			ts.served = false
			if lambda <= 0 || tsk.demandMS <= 0 {
				continue
			}
			if sumFrac <= 0 {
				// No active replica for a tier with demand: the app cannot
				// serve requests; handled in pass 3 as saturation.
				continue
			}
			// Weighted load balancing yields equal per-replica utilization:
			// rho_i = (lambda*f_i/sumF)*D/f_i = lambda*D/sumF.
			ts.rho = lambda * tsk.demandSec / sumFrac
			ts.served = true
			for _, rep := range replicas {
				lambdaI := lambda * rep.frac / sumFrac
				// Dom-0 demand: one visit per tier per request.
				sc.dom0DemandCPU[rep.host] += lambdaI * sk.dom0Sec
				if rtOnly {
					continue
				}
				used := lambdaI * tsk.demandSec // absolute CPU fraction
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
		var background float64
		if dom0Background != nil {
			background = dom0Background[h]
		}
		share := cluster.Dom0CPUShare * sc.hostFreq[hi]
		sc.dom0Util[hi] = sc.dom0DemandCPU[hi]/share + background
	}

	// Pass 3: per-application response times. A transaction's time is one
	// accumulator, txnRT[ai][i]; it starts at the transaction's CPU-free waits
	// and receives one term per (tier, replica) in that order. The loops run
	// replica-major — all transactions take a replica's term before the next
	// replica is looked at — which reorders work across accumulators, never
	// within one.
	for ai := range m.skel {
		sk := &m.skel[ai]
		lambda := sc.lambda[ai]
		tiers := sc.tiers[ai]
		saturated := false

		// WAN penalty: the expected number of tier hops crossing zones,
		// with replicas weighted by their share of tier load.
		var crossZoneSec float64
		if !m.oneZone && lambda > 0 {
			for i := 0; i+1 < len(tiers); i++ {
				up := &tiers[i]
				down := &tiers[i+1]
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

		rt := sc.txnRT[ai]
		for i, latency := range sk.latencySec {
			rt[i] = latency + crossZoneSec // CPU-free I/O and WAN waits
		}
		for ti := range sk.tiers {
			tsk := &sk.tiers[ti]
			ts := &tiers[ti]
			if lambda <= 0 || tsk.demandMS <= 0 {
				continue
			}
			if ts.sumFrac <= 0 {
				saturated = true
				// Unserved tier: charge the full overload penalty.
				addVisits(rt, tsk.txnDemandSec, 1, 1, 1, 0, overloadPenaltySec)
				continue
			}
			// Residence multiplier 1/(1-rho) with soft cap: replicas of a
			// tier are equally utilized, so it is the tier's.
			rho := ts.rho
			var tierOverload float64
			if rho > maxRho {
				saturated = true
				tierOverload = (rho - maxRho) * overloadPenaltySec
				rho = maxRho
			}
			stretch := 1 / (1 - rho)
			for _, rep := range ts.replicas {
				// Dom-0 residence on the replica's host.
				overload := tierOverload
				d0rho := sc.dom0Util[rep.host]
				if d0rho > maxRho {
					overload += (d0rho - maxRho) * overloadPenaltySec
					d0rho = maxRho
					saturated = true
				}
				if rep.frac <= 0 {
					continue
				}
				addVisits(rt, tsk.txnDemandSec, rep.frac/ts.sumFrac, rep.frac, stretch, sk.dom0Visit/(1-d0rho), overload)
			}
		}

		var meanRT float64
		for i, prob := range sk.probs {
			meanRT += prob * rt[i]
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

// addVisits adds one replica's residence to every transaction's response
// time: the replica carries weight of its tier's load, serves a demand at
// rate frac stretched by queueing, and each visit pays Dom-0 residence and
// the overload penalty on top.
func addVisits(rt, demandSec []float64, weight, frac, stretch, dom0Add, overload float64) {
	rt = rt[:len(demandSec)]
	for i, demand := range demandSec {
		perVisit := (demand/frac)*stretch + dom0Add + overload
		rt[i] += weight * perVisit
	}
}
