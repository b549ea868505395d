package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/lqn"
)

// Ideal is the output of the Perf-Pwr optimizer: the configuration that
// optimally trades performance against power for the current workload when
// transient adaptation costs are ignored, and its utility rates. Its net
// rate is the admissible cost-to-go heuristic of the A* search.
type Ideal struct {
	Config cluster.Config
	Steady Steady
}

// PerfPwrScope selects how much freedom a controller's Perf-Pwr ideal has.
type PerfPwrScope int

// Scopes.
const (
	// ScopeFull repacks every VM (including dormant replicas) onto as few
	// hosts as possible (the 2nd-level controller's view).
	ScopeFull PerfPwrScope = iota + 1
	// ScopeSubset repacks only the VMs currently placed within a host
	// subset, holding the rest of the system fixed (the 1st-level
	// controllers' view: CPU tuning plus migrations inside their group).
	ScopeSubset
)

// PerfPwrOptions tunes the optimizer.
type PerfPwrOptions struct {
	// Hosts restricts the optimizer to a subset of hosts (hierarchy
	// levels); empty means all hosts.
	Hosts []string
	// VMZonePins constrains individual VMs to a data-center zone.
	// Controllers that cannot migrate across the WAN pin every currently
	// active VM to its present zone — dormant replicas stay free, exactly
	// mirroring what such a controller can actually reach (same-zone
	// migrations plus replica additions anywhere).
	VMZonePins map[cluster.VMID]string
	// AppHostPools confines each application's VMs to a fixed host pool
	// (the Perf-Cost baseline's "2 hosts per application").
	AppHostPools map[string][]string
	// Deprecated: Workers is ignored; it remains only because bench/ sets it.
	Workers int
}

// PerfPwr implements the optimizer of §IV-A. For each candidate number of
// active hosts, from all available down to the fewest that could hold the
// VMs no reduction removes, it starts from maximum CPU allocations for every
// replica and repeatedly (a) reduces an individual VM's capacity by one step
// or (b) removes a replica, choosing the candidate with the highest
// utilization-per-utility gradient ∇ρ, until the VMs bin-pack onto the hosts
// (worst-fit). The packed configuration with the highest overall utility
// rate across host counts is the ideal configuration c*.
func PerfPwr(e *Evaluator, rates map[string]float64, opts PerfPwrOptions) (Ideal, error) {
	scope, hosts := fullScope(e, opts)
	return sweepHostCounts(e, rates, scope, hosts)
}

// fullScope is PerfPwr's packing scope: every VM of the catalog, replicas
// free to go, on the option's hosts or else all of them.
func fullScope(e *Evaluator, opts PerfPwrOptions) (packScope, []string) {
	hosts := opts.Hosts
	if len(hosts) == 0 {
		hosts = e.cat.HostNames()
	}
	return packScope{
		managed:             e.cat.VMIDs(),
		fixed:               cluster.NewConfig(),
		allowReplicaRemoval: true,
		zonePins:            opts.VMZonePins,
		appPools:            opts.AppHostPools,
	}, hosts
}

// VMZonePinsOf pins every active VM of a configuration to its current
// zone: the reachability constraint of controllers without WAN migration.
func VMZonePinsOf(cat *cluster.Catalog, cfg cluster.Config) map[cluster.VMID]string {
	pins := make(map[cluster.VMID]string)
	for _, id := range cfg.ActiveVMs() {
		p, _ := cfg.PlacementOf(id)
		pins[id] = cat.ZoneOf(p.Host)
	}
	return pins
}

// PerfPwrSubset is the 1st-level controllers' ideal: repack only the VMs
// currently placed within the host subset (no replication changes), holding
// everything outside the subset fixed.
func PerfPwrSubset(e *Evaluator, base cluster.Config, rates map[string]float64, hosts []string) (Ideal, error) {
	scope, onHosts := subsetScope(e, base, hosts)
	if len(scope.managed) == 0 || len(onHosts) == 0 {
		st, err := e.Steady(base, rates)
		if err != nil {
			return Ideal{}, err
		}
		return Ideal{Config: base.Clone(), Steady: st}, nil
	}
	return sweepHostCounts(e, rates, scope, onHosts)
}

// subsetScope is PerfPwrSubset's packing scope and the hosts it packs onto.
func subsetScope(e *Evaluator, base cluster.Config, hosts []string) (packScope, []string) {
	if len(hosts) == 0 {
		hosts = e.cat.HostNames()
	}
	// A 1st-level controller cannot cycle host power: only hosts already on
	// are packing targets, and they stay on (and drawing power) even when
	// the packing leaves them empty.
	onHosts := make([]string, 0, len(hosts))
	inScope := make(map[string]bool, len(hosts))
	for _, h := range hosts {
		if base.HostOn(h) {
			onHosts = append(onHosts, h)
			inScope[h] = true
		}
	}
	scope := packScope{fixed: base.Clone()}
	for _, id := range base.ActiveVMs() {
		p, _ := base.PlacementOf(id)
		if inScope[p.Host] {
			scope.managed = append(scope.managed, id)
			scope.fixed.Unplace(id)
		}
	}
	return scope, onHosts
}

// PerfPwrMeetingTargets is the modified Perf-Pwr optimizer behind the
// Pwr-Cost baseline (§V-C): identical to PerfPwr except that no reduction
// may push any application's predicted response time past its target —
// capacities stay "large enough that the target response time can be met".
// It returns an error when even maximum capacities cannot meet the targets
// on any host count.
func PerfPwrMeetingTargets(e *Evaluator, rates map[string]float64) (Ideal, error) {
	scope, hosts := targetsScope(e)
	ideal, err := sweepHostCounts(e, rates, scope, hosts)
	if err != nil {
		return Ideal{}, fmt.Errorf("core: no configuration meets all response-time targets: %w", err)
	}
	return ideal, nil
}

// targetsScope is PerfPwrMeetingTargets' packing scope: PerfPwr's on every
// host, under the applications' response-time targets.
func targetsScope(e *Evaluator) (packScope, []string) {
	scope, hosts := fullScope(e, PerfPwrOptions{})
	scope.rtTargets = utilityTargets(e)
	return scope, hosts
}

// utilityTargets is every application's response-time target in seconds.
func utilityTargets(e *Evaluator) map[string]float64 {
	targets := make(map[string]float64, len(e.util.Apps))
	for name, a := range e.util.Apps {
		targets[name] = a.TargetRT.Seconds()
	}
	return targets
}

// EvaluatePlan computes Eq. 3 for executing a plan from cfg: transient
// accrual during each action plus steady accrual of the final configuration
// for the rest of the control window. An empty plan yields the stay-put
// utility.
func EvaluatePlan(e *Evaluator, cfg cluster.Config, plan []cluster.Action, rates map[string]float64, cw time.Duration) (float64, error) {
	var total float64
	var spent time.Duration
	cur := cfg
	for i, a := range plan {
		st, err := e.Steady(cur, rates)
		if err != nil {
			return 0, err
		}
		next, filled, err := cluster.Apply(e.cat, cur, a)
		if err != nil {
			return 0, fmt.Errorf("core: evaluating plan step %d: %w", i, err)
		}
		ac := e.Action(cur, st, filled, rates)
		charged := ac.Duration
		if left := cw - spent; charged > left {
			charged = left
		}
		if charged > 0 {
			total += charged.Seconds() * ac.Rate
		}
		spent += ac.Duration
		cur = next
	}
	if remaining := cw - spent; remaining > 0 {
		st, err := e.Steady(cur, rates)
		if err != nil {
			return 0, err
		}
		total += remaining.Seconds() * st.NetRate()
	}
	return total, nil
}

// sweepHostCounts runs the reduction/packing loop for every host count from
// the most hosts down to the plan's floor, and keeps the best packed
// configuration. The arms — one per (host count, affinity variant) pair —
// are full reduction loops over one shared packPlan. The first arm whose
// evaluation fails ends the sweep with its error; otherwise an arm replaces
// the best so far only by a strictly higher net rate, so the earliest of
// equals wins.
func sweepHostCounts(e *Evaluator, rates map[string]float64, scope packScope, hosts []string) (Ideal, error) {
	// In a multi-zone catalog every host count is tried with and without
	// the zone-affinity preference.
	variants := 1
	if len(e.cat.Zones()) > 1 {
		variants = 2
	}
	plan := newPackPlan(e, rates, scope, hosts)
	var best *Ideal
	dbg := e.log.Enabled(context.Background(), slog.LevelDebug)
	for n, floor := len(hosts), plan.floor(); n >= floor; n-- {
		// The variants of one host count walk the same states until their
		// packings diverge, so they run back to back and the second replays
		// the first's trail instead of scoring those states again.
		var trail []step
		for v := 0; v < variants; v++ {
			noAffinity := v == 1
			e.cSweepArms.Inc()
			r := newReduction(plan, n, noAffinity)
			if variants > 1 {
				r.trail = &trail // a lone arm has no twin to record for
			}
			cfg, ok, err := r.run()
			if err != nil {
				return Ideal{}, err
			}
			if !ok {
				continue
			}
			cfg, steady, err := plan.polish(cfg)
			if err != nil {
				return Ideal{}, err
			}
			if dbg {
				e.log.Debug("perfpwr sweep",
					"hosts", n,
					"no_affinity", noAffinity,
					"net_rate", steady.NetRate(),
					"config", fmt.Sprint(cfg))
			}
			if best == nil || steady.NetRate() > best.Steady.NetRate() {
				best = &Ideal{Config: cfg, Steady: steady}
			}
		}
	}
	if best == nil {
		return Ideal{}, fmt.Errorf("core: Perf-Pwr found no feasible configuration on %d hosts", len(hosts))
	}
	return tuneDVFS(e, *best, rates, scope)
}

// polish hill-climbs a packed configuration's CPU allocations: the
// reduction loop stops at the *first* packable state, which can leave
// allocations unbalanced (one tier starved just past the penalty cliff,
// others over-provisioned). Single ±step moves that improve the net
// utility rate — staying within host capacity, the VM minimum, and any
// hard response-time targets — are applied until none remains. Each move
// is scored through the delta overlay; only an accepted one touches cfg,
// which polish owns and updates in place.
func (p *packPlan) polish(cfg cluster.Config) (cluster.Config, Steady, error) {
	cat := p.e.cat
	cur, err := p.e.SteadyFP(cfg, p.rates, p.rfp)
	if err != nil {
		return cluster.Config{}, Steady{}, err
	}
	// The active set is fixed from here on; only allocations move.
	ids := cfg.ActiveVMs()
	host := make([]string, len(ids))
	cpu := make([]float64, len(ids))
	for i, id := range ids {
		pl, _ := cfg.PlacementOf(id)
		host[i], cpu[i] = pl.Host, pl.CPUPct
	}
	// allocated folds a host's allocations in sorted VM order, as
	// Config.AllocatedCPU does.
	allocated := func(h string) float64 {
		var sum float64
		for i := range ids {
			if host[i] == h {
				sum += cpu[i]
			}
		}
		return sum
	}
	for iter := 0; iter < 64; iter++ {
		improved := false
		for i, id := range ids {
			if _, managed := slices.BinarySearch(p.ids, id); !managed {
				continue
			}
			spec, _ := cat.Host(host[i])
			// Both moves start from the allocation the VM had when its turn
			// came, even when the first one was accepted.
			from := cpu[i]
			for _, delta := range [2]float64{cat.CPUStepPct, -cat.CPUStepPct} {
				next := from + delta
				if next < cat.MinCPUPct-1e-9 || next > spec.UsableCPUPct+1e-9 {
					continue
				}
				if delta > 0 && allocated(host[i])+delta > spec.UsableCPUPct+1e-9 {
					continue
				}
				d := cpuDelta(id, host[i], cpu[i], next)
				st, err := p.e.steadyOver(cfg, &d, p.rates, p.rfp)
				if err != nil {
					return cluster.Config{}, Steady{}, err
				}
				if st.NetRate() > cur.NetRate()+1e-12 && p.scope.meetsTargets(st, p.rates) {
					cfg.Place(id, host[i], next)
					cpu[i], cur = next, st
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return cfg, cur, nil
}

// cpuDelta is the overlay for one VM's allocation moving from cpu to next
// on its host.
func cpuDelta(id cluster.VMID, host string, cpu, next float64) cluster.Delta {
	return cluster.Delta{
		VM:        id,
		OldPlaced: true,
		Old:       cluster.Placement{Host: host, CPUPct: cpu},
		NewPlaced: true,
		New:       cluster.Placement{Host: host, CPUPct: next},
	}
}

// tuneDVFS greedily downclocks DVFS-capable hosts of an ideal configuration
// while the net utility rate improves (the §VI extension: lower voltage
// saves power; the model prices the response-time cost). Response-time
// targets are never violated: explicit scope targets when present,
// otherwise the evaluator's utility targets — downclocking is a quiet-phase
// optimization, not a reason to miss objectives.
func tuneDVFS(e *Evaluator, ideal Ideal, rates map[string]float64, scope packScope) (Ideal, error) {
	if scope.rtTargets == nil {
		scope.rtTargets = utilityTargets(e)
	}
	// Guard band: a downclocked host must still meet targets if the
	// workload grows ~30% before the next decision — frequency scaling is
	// a quiet-phase optimization and must not amplify the next ramp.
	guard := make(map[string]float64, len(rates))
	for name, r := range rates {
		guard[name] = r * 1.3
	}
	rfp, guardFP := e.RatesFingerprint(rates), e.RatesFingerprint(guard)
	if st, err := e.SteadyFP(ideal.Config, guard, guardFP); err != nil || !scope.meetsTargets(st, guard) {
		// The best packing has no slack (or is already overloaded):
		// frequency scaling has nothing safe to offer.
		return ideal, err
	}
	hosts := ideal.Config.ActiveHosts()
	improved := true
	for improved {
		improved = false
		for _, h := range hosts {
			spec, ok := e.cat.Host(h)
			if !ok || !spec.SupportsDVFS() {
				continue
			}
			for _, f := range spec.DVFSLevels {
				if f == ideal.Config.HostFreq(h) {
					continue
				}
				// Score the level through the overlay; the configuration is
				// copied (its frequency map only) when the level is adopted.
				d := cluster.Delta{FreqHost: h, NewFreq: f}
				st, err := e.steadyOver(ideal.Config, &d, rates, rfp)
				if err != nil {
					return Ideal{}, err
				}
				if st.NetRate() <= ideal.Steady.NetRate()+1e-12 || !scope.meetsTargets(st, rates) {
					continue
				}
				// The guard band: still within targets at 1.3× the rates.
				gst, err := e.steadyOver(ideal.Config, &d, guard, guardFP)
				if err != nil {
					return Ideal{}, err
				}
				if !scope.meetsTargets(gst, guard) {
					continue
				}
				cfg := ideal.Config.CloneShared()
				cfg.SetHostFreq(h, f)
				ideal = Ideal{Config: cfg, Steady: st}
				improved = true
			}
		}
	}
	return ideal, nil
}

// packScope bounds what the reduction/packing loop may touch: the VMs it
// places (everything else is held fixed), whether it may deactivate
// replicas, and optional hard response-time ceilings that reductions must
// not violate (the "modified Perf-Pwr optimizer" behind the Pwr-Cost
// baseline).
type packScope struct {
	managed             []cluster.VMID
	fixed               cluster.Config
	allowReplicaRemoval bool
	rtTargets           map[string]float64
	zonePins            map[cluster.VMID]string
	appPools            map[string][]string
}

func (s packScope) meetsTargets(st Steady, rates map[string]float64) bool {
	if s.rtTargets == nil {
		return true
	}
	for appName, target := range s.rtTargets {
		if rates[appName] > 0 && st.RTSec[appName] > target {
			return false
		}
	}
	return true
}

// planVM is what a Perf-Pwr call knows about one managed VM up front.
type planVM struct {
	spec cluster.VMSpec // zero for a VM the catalog does not list
	// tier indexes packPlan.tiers (-1 outside the catalog). counted is false
	// for a VM whose tier or application catalog and model do not know: it
	// carries no demand share.
	tier    int
	counted bool
	pinZone string // zone pin; pinned false when free
	pinned  bool
	pool    []string // host pool of the VM's application; pooled false when unconfined
	pooled  bool
	appNo   int // dense application number, keys the packing's per-app zone memory
	slot    int // the VM as an lqn.Session addresses it
}

// packHost is one packing target's remaining capacity.
type packHost struct {
	name    string
	zone    string
	freeCPU float64
	freeMem int
	slots   int
	used    bool
}

// packPlan is everything one Perf-Pwr call hoists out of its candidate
// loops: the workload fingerprint and, aligned with the sorted managed-VM
// list, what is known of each VM (catalog entry, tier, demand, zone pin,
// host pool, solver slot). The sweep's arms share one plan read-only; the
// rule they follow is DESIGN.md §9's — an arm loads its base configuration
// into the solver once, and a reduction candidate is a patch of that state,
// scored for what the gradient reads and never built.
type packPlan struct {
	e     *Evaluator
	rates map[string]float64
	rfp   RatesFP
	scope packScope

	ids []cluster.VMID // scope.managed, sorted
	vms []planVM       // aligned with ids
	// eq1 and targets are what scoring a candidate folds its response times
	// through: the workload's Eq. 1 inputs and, aligned with
	// Evaluator.appNames, the scope's hard response-time ceilings (+Inf for
	// none; nil without targets).
	eq1     eq1
	targets []float64
	// apps is how many distinct applications the managed VMs belong to.
	apps int

	tiers []cluster.TierKey
	// tierVMs lists each tier's managed replicas (indices into ids) in ID
	// order; fixedReplicas counts its active replicas outside the scope.
	// tierDemand is the CPU the whole tier must serve, rate × mean demand /
	// 1000 (zero for an application the model does not know), which allocUtil
	// splits across the tier's replicas.
	tierVMs       [][]int
	fixedReplicas []int
	tierDemand    []float64

	// hosts is the call's packing targets with the capacity the fixed VMs
	// leave on each; arm n packs onto hosts[:n].
	hosts []packHost
}

func newPackPlan(e *Evaluator, rates map[string]float64, scope packScope, hosts []string) *packPlan {
	cat := e.cat
	p := &packPlan{e: e, rates: rates, rfp: e.RatesFingerprint(rates), scope: scope, tiers: cat.Tiers()}
	p.ids = slices.Clone(scope.managed)
	slices.Sort(p.ids)
	p.vms = make([]planVM, len(p.ids))
	p.eq1.load(e, rates)
	if scope.rtTargets != nil {
		p.targets = make([]float64, len(e.appNames))
		for ai, name := range e.appNames {
			p.targets[ai] = math.Inf(1)
			if target, ok := scope.rtTargets[name]; ok && rates[name] > 0 {
				p.targets[ai] = target
			}
		}
	}
	p.tierVMs = make([][]int, len(p.tiers))
	p.fixedReplicas = make([]int, len(p.tiers))
	p.tierDemand = make([]float64, len(p.tiers))
	tierNo := make(map[cluster.TierKey]int, len(p.tiers))
	for t, k := range p.tiers {
		tierNo[k] = t
		if spec := e.model.Apps()[k.App]; spec != nil {
			p.tierDemand[t] = rates[k.App] * spec.MeanDemandMS(k.Tier) / 1000
		}
		for _, id := range cat.TierVMs(k) {
			if scope.fixed.Active(id) {
				p.fixedReplicas[t]++
			}
		}
	}
	appNo := make(map[string]int)
	for i, id := range p.ids {
		vm, known := cat.VM(id)
		v := planVM{spec: vm, tier: -1}
		if known {
			v.tier = tierNo[cluster.TierKey{App: vm.App, Tier: vm.Tier}]
			p.tierVMs[v.tier] = append(p.tierVMs[v.tier], i)
			v.counted = e.model.Apps()[vm.App] != nil
		}
		v.pinZone, v.pinned = scope.zonePins[id]
		v.pool, v.pooled = scope.appPools[vm.App]
		if _, seen := appNo[vm.App]; !seen {
			appNo[vm.App] = len(appNo)
		}
		v.appNo = appNo[vm.App]
		v.slot = e.model.VMSlot(id)
		p.vms[i] = v
	}
	p.apps = len(appNo)

	p.hosts = make([]packHost, len(hosts))
	for hi, h := range hosts {
		spec, _ := cat.Host(h)
		ph := packHost{
			name:    h,
			zone:    cat.ZoneOf(h),
			freeCPU: spec.UsableCPUPct,
			freeMem: spec.MemoryMB - spec.Dom0MemoryMB,
			slots:   spec.MaxVMs,
		}
		// Fixed VMs on in-scope hosts consume capacity up front.
		for _, id := range scope.fixed.VMsOnHost(h) {
			pl, _ := scope.fixed.PlacementOf(id)
			vm, _ := cat.VM(id)
			ph.freeCPU -= pl.CPUPct
			ph.freeMem -= vm.MemoryMB
			ph.slots--
			ph.used = true
		}
		p.hosts[hi] = ph
	}
	return p
}

// floor is the fewest hosts an arm can pack onto. Every state a reduction
// reaches keeps a floor set of VMs: with replica removal the first managed
// replica of each tier (reduce removes only a tier's last active replica,
// never its only one), without it every managed VM, and either way any VM
// outside the catalog's tiers. Arm n packs onto hosts[:n], net of the fixed
// VMs, so it can pack only if the floor set fits their slots, their memory
// and their CPU at the minimum allocation: necessary for any packing, pins
// and pools included, so every arm below the floor ends unpackable. The CPU
// comparison credits each VM 1e-6 points, far above the 1e-9 slack reduce
// and binPack allow. The largest arm always runs: a sweep where nothing fits
// still reports it.
func (p *packPlan) floor() int {
	vms, memMB := 0, 0
	for i, v := range p.vms {
		if v.tier < 0 || !p.scope.allowReplicaRemoval || p.tierVMs[v.tier][0] == i {
			vms++
			memMB += v.spec.MemoryMB
		}
	}
	minCPU := float64(vms) * (p.e.cat.MinCPUPct - 1e-6)
	slots, freeMem, freeCPU := 0, 0, 0.0
	for n, h := range p.hosts {
		slots += max(h.slots, 0)
		freeMem += max(h.freeMem, 0)
		freeCPU += max(h.freeCPU, 0)
		if slots >= vms && freeMem >= memMB && freeCPU >= minCPU {
			return n + 1
		}
	}
	return len(p.hosts)
}

// reduction is one sweep arm's §IV-A state: which managed replicas are
// active and their CPU allocations, as slices aligned with packPlan.ids, and
// sess — that state spread round-robin over the arm's hosts, loaded into the
// LQN solver once. Every candidate of an iteration is a patch of sess.
type reduction struct {
	*packPlan
	hosts []packHost // the arm's packing targets, pristine
	// noAffinity disables the soft same-zone preference for unpinned VMs
	// (pins stay hard). The sweep tries both variants: zone-local packing
	// wins on WAN latency, cross-zone packing wins when the home zone has
	// no capacity left — the model's net rate arbitrates.
	noAffinity bool

	cpu      []float64 // meaningful while active
	active   []bool
	replicas []int // active managed replicas per tier
	// alloc and share are allocUtil's terms, kept current by setCPU and
	// addReplicas: cpu[i]/100 per VM, and per tier its demand split across
	// its active replicas, managed or fixed.
	alloc []float64
	share []float64
	// sess holds the current state from start to close; seats are the arm's
	// hosts as it addresses them: the rank-th active VM sits on
	// seats[rank%len(seats)].
	sess  *lqn.Session
	seats []lqn.HostSlot
	// curRho and curPerf are the current state's mean allocation
	// utilization and performance rate, the gradient's reference point.
	curRho, curPerf float64

	// trail is shared by the affinity variants of one host count: the first
	// appends every step it takes, the second replays them from pos for as
	// long as it is blocked in the same pin zone, and drops the trail (nil)
	// once it is not.
	trail *[]step
	pos   int

	// binPack's working state, reused across iterations.
	free       []packHost
	order      []int
	target     []int // host index per VM, set by a successful binPack
	appZone    []string
	appZoneSet []bool
}

// move is one scored reduction candidate: VM vm's capacity cut by a step,
// or the replica removed.
type move struct {
	vm        int
	remove    bool
	rho, perf float64
	rt        float64 // summed response times, the gradient's tie-breaker
}

// step is one reduce call's outcome, keyed by all of the blocked VM that
// reduce reads: its zone pin.
type step struct {
	pinned  bool
	pinZone string
	best    move
	found   bool
}

func newReduction(p *packPlan, nHosts int, noAffinity bool) *reduction {
	n := len(p.ids)
	floats := make([]float64, 2*n+len(p.tiers))
	r := &reduction{
		packPlan:   p,
		hosts:      p.hosts[:nHosts],
		noAffinity: noAffinity,
		cpu:        floats[:n:n],
		alloc:      floats[n : 2*n : 2*n],
		share:      floats[2*n:],
		active:     make([]bool, n),
		replicas:   make([]int, len(p.tiers)),
		seats:      make([]lqn.HostSlot, nHosts),
		free:       make([]packHost, nHosts),
		order:      make([]int, 0, n),
		target:     make([]int, n),
		appZone:    make([]string, p.apps),
		appZoneSet: make([]bool, p.apps),
	}
	// Initial state: every managed replica active at maximum capacity.
	maxCPU := p.e.cat.MaxVMCPUPct()
	for i := range r.cpu {
		r.setCPU(i, maxCPU)
		r.active[i] = true
	}
	for t := range r.replicas {
		r.addReplicas(t, len(p.tierVMs[t]))
	}
	return r
}

// setCPU gives VM i an allocation.
func (r *reduction) setCPU(i int, cpu float64) {
	r.cpu[i] = cpu
	r.alloc[i] = cpu / 100
}

// addReplicas changes tier t's count of active managed replicas by n. A tier
// left without a replica has no share, and no active VM to read it.
func (r *reduction) addReplicas(t, n int) {
	r.replicas[t] += n
	r.share[t] = r.tierDemand[t] / float64(r.replicas[t]+r.fixedReplicas[t])
}

// run is the §IV-A loop for the arm's host subset: reduce by gradient until
// the state bin-packs, then return the packed configuration.
func (r *reduction) run() (cluster.Config, bool, error) {
	defer r.close()
	if ok, err := r.start(); err != nil || !ok {
		return cluster.Config{}, false, err
	}
	for iter := 0; ; iter++ {
		ok, blocked := r.binPack()
		if ok {
			cfg := r.packed()
			if r.scope.rtTargets != nil {
				st, err := r.e.SteadyFP(cfg, r.rates, r.rfp)
				if err != nil {
					return cluster.Config{}, false, err
				}
				if !r.scope.meetsTargets(st, r.rates) {
					return cluster.Config{}, false, nil
				}
			}
			return cfg, true, nil
		}
		if !r.reduce(blocked) {
			return cluster.Config{}, false, nil // fully reduced, still unpackable
		}
		if iter > 10000 {
			return cluster.Config{}, false, fmt.Errorf("core: Perf-Pwr reduction did not converge")
		}
	}
}

// start evaluates the initial state (every replica at maximum capacity) and
// loads it into the solver; it reports false when even that violates a hard
// target, so the arm is infeasible. Pair it with close.
func (r *reduction) start() (bool, error) {
	// Spread the state round-robin over the hosts (on top of the fixed
	// remainder) ignoring capacity constraints — intermediate
	// configurations are legal for model evaluation, which depends almost
	// entirely on allocations.
	base := r.scope.fixed.Clone()
	for _, h := range r.hosts {
		base.SetHostOn(h.name, true)
	}
	for i, id := range r.ids {
		base.Place(id, r.hosts[i%len(r.hosts)].name, r.cpu[i])
	}
	st, err := r.e.SteadyFP(base, r.rates, r.rfp)
	if err != nil {
		return false, err
	}
	r.curRho, r.curPerf = r.allocUtil(), st.PerfRate
	if !r.scope.meetsTargets(st, r.rates) {
		return false, nil
	}
	if r.sess, err = r.e.model.Open(base, r.rates); err != nil {
		return false, fmt.Errorf("core: steady evaluation: %w", err)
	}
	for k, h := range r.hosts {
		r.seats[k] = r.sess.Host(h.name)
	}
	return true, nil
}

// close hands the arm's solver state back to the model.
func (r *reduction) close() {
	if r.sess != nil {
		r.sess.Close()
		r.sess = nil
	}
}

// reduce scores every reduction candidate of the current state — (a) one
// VM's capacity cut by a step, (b) one replica removed — and applies the
// one with the highest utilization-per-utility gradient ∇ρ; it reports
// false when no candidate is left. blocked is the VM binPack failed on.
// Only the winner changes the state.
func (r *reduction) reduce(blocked int) bool {
	pinned, pinZone := r.vms[blocked].pinned, r.vms[blocked].pinZone
	if r.trail != nil && r.pos < len(*r.trail) {
		// The twin was here: same state, and the same steps follow for as
		// long as the blocker's pin is the one it met.
		if s := (*r.trail)[r.pos]; s.pinned == pinned && s.pinZone == pinZone {
			r.pos++
			if s.found {
				r.apply(s.best)
			}
			return s.found
		}
		r.trail = nil
	}
	cat := r.e.cat
	// When the blocker is pinned to a zone, cutting VMs pinned to a
	// *different* zone cannot unblock the packing — unrestricted gradient
	// cuts would starve unrelated applications first. VMs pinned to the
	// same zone and unpinned VMs (which may be hogging the blocked zone)
	// remain candidates.
	helps := func(i int) bool {
		return !pinned || !r.vms[i].pinned || r.vms[i].pinZone == pinZone
	}

	// Highest gradient wins; ties (common when the flat penalty makes
	// further cuts to a saturated VM "free") break toward the candidate
	// with the lowest aggregate response time, so reductions spread rather
	// than starving one VM. The first candidate seen wins remaining ties.
	var best move
	var bestGradient float64
	found := false
	scored := 0
	consider := func(m move, meets bool) {
		scored++
		if !meets {
			return // hard targets: this reduction is off the table
		}
		dRho := m.rho - r.curRho
		dPerf := r.curPerf - m.perf // utility lost by the reduction
		gradient := math.Inf(1)
		if dPerf > 1e-12 {
			gradient = dRho / dPerf
		} else if dRho <= 1e-12 {
			gradient = 0
		}
		if !found || gradient > bestGradient || (gradient == bestGradient && m.rt < best.rt) {
			best, bestGradient, found = m, gradient, true
		}
	}
	// (a) one capacity step off each VM that has one to give.
	for i := range r.ids {
		if r.active[i] && helps(i) && r.cpu[i]-cat.CPUStepPct >= cat.MinCPUPct-1e-9 {
			consider(r.try(move{vm: i}))
		}
	}
	// (b) the last active replica of each tier with more than one.
	if r.scope.allowReplicaRemoval {
		for t, vms := range r.tierVMs {
			if r.replicas[t] <= 1 {
				continue
			}
			victim := -1
			for _, i := range vms {
				if r.active[i] {
					victim = i
				}
			}
			if helps(victim) {
				consider(r.try(move{vm: victim, remove: true}))
			}
		}
	}
	// A scoring is a steady evaluation: counted where those are counted.
	r.e.evals += scored
	if found {
		r.apply(best)
	}
	if r.trail != nil {
		*r.trail = append(*r.trail, step{pinned, pinZone, best, found})
		r.pos++
	}
	return found
}

// try scores one candidate: patched into the state, read for what the
// gradient needs, and dropped again. It reports whether the hard targets
// hold.
func (r *reduction) try(m move) (move, bool) {
	from := r.cpu[m.vm]
	r.patch(m)
	m.rho = r.allocUtil()
	var meets bool
	m.perf, m.rt, meets = r.e.score(r.sess, &r.eq1, r.targets)
	r.sess.Restore()
	if m.remove {
		r.active[m.vm] = true
		r.addReplicas(r.vms[m.vm].tier, 1)
	} else {
		r.setCPU(m.vm, from)
	}
	return m, meets
}

// patch moves the state, and the solver's copy of it, to a candidate: one
// slot lowered for a capacity cut; for a removal the victim unplaced and
// every active VM behind it moved to the host the round-robin now gives it.
func (r *reduction) patch(m move) {
	i := m.vm
	if !m.remove {
		r.setCPU(i, r.cpu[i]-r.e.cat.CPUStepPct)
		r.sess.SetCPU(r.vms[i].slot, r.cpu[i])
		return
	}
	rank := 0
	for j := range r.ids {
		if !r.active[j] {
			continue
		}
		if j > i {
			r.sess.Move(r.vms[j].slot, r.seats[(rank-1)%len(r.seats)])
		}
		rank++
	}
	r.sess.Unplace(r.vms[i].slot)
	r.active[i] = false
	r.addReplicas(r.vms[i].tier, -1)
}

// apply makes a scored move the current state.
func (r *reduction) apply(m move) {
	r.patch(m)
	r.sess.Commit()
	r.curRho, r.curPerf = m.rho, m.perf
}

// allocUtil is the ∇ρ numerator source: the demand-weighted mean
// utilization of the allocation, approximated from request rates and model
// demands. Higher means tighter packing potential. The two sums fold in
// sorted VM order: their last bits feed the ∇ρ gradient comparisons.
func (r *reduction) allocUtil() float64 {
	var totalDemand, totalAlloc float64
	for i, active := range r.active {
		v := &r.vms[i]
		if !active || !v.counted {
			continue
		}
		totalDemand += r.share[v.tier] // this replica's share of its tier's demand
		totalAlloc += r.alloc[i]
	}
	if totalAlloc <= 0 {
		return 0
	}
	return totalDemand / totalAlloc
}

// score solves a session's patched state and folds what a reduction reads
// from it, straight from the dense response times: the performance rate
// (Eq. 1 summed in perfRateFold's order), the summed response times (the
// gradient's tie-breaker, in sorted application order) and whether the hard
// targets hold (nil: none). Every fold is the one Evaluator.Steady performs
// on the same configuration built, so the bits agree.
func (e *Evaluator) score(sess *lqn.Session, q *eq1, targets []float64) (perf, sumRT float64, meets bool) {
	rt, _ := sess.Solve()
	meets = true
	for ai, v := range rt {
		sumRT += v
		if targets != nil && v > targets[ai] {
			meets = false
		}
	}
	for i, ai := range e.utilModel {
		var v float64
		if ai >= 0 {
			v = rt[ai]
		}
		perf += q.perfRate(i, v)
	}
	return perf, sumRT, meets
}

// binPack attempts the paper's worst-fit packing of the current state: VMs
// in decreasing size order; each goes to the used host with the largest
// free capacity, or to a new empty host if none fits. On success the
// assignment is left in r.target and r.free for packed to materialise; on
// failure the VM that could not be placed is returned, so the reduction
// loop can aim its next cut at the actual bottleneck.
func (r *reduction) binPack() (ok bool, blocked int) {
	copy(r.free, r.hosts)
	// Pack VMs of the same application together (largest first within an
	// app) so the zone-affinity preference below can keep each app inside
	// one data center: a stable insertion sort of the sorted active list.
	order := r.order[:0]
	for i := range r.ids {
		if !r.active[i] {
			continue
		}
		j := len(order)
		order = append(order, i)
		for ; j > 0; j-- {
			prev := order[j-1]
			if a, b := r.vms[i].spec.App, r.vms[prev].spec.App; a > b || (a == b && r.cpu[i] <= r.cpu[prev]) {
				break
			}
			order[j] = prev
		}
		order[j] = i
	}
	r.order = order

	// appZone remembers where each application's first VM landed; later
	// VMs of the app prefer that zone, keeping tiers off the WAN. In
	// single-zone catalogs every host shares the "" zone and the
	// preference is vacuous (the paper's original worst-fit).
	clear(r.appZoneSet)
	for _, i := range order {
		v := &r.vms[i]
		need, memMB := r.cpu[i], v.spec.MemoryMB
		zone, hasZone := r.appZone[v.appNo], r.appZoneSet[v.appNo]
		if r.noAffinity {
			hasZone = false
		}
		if v.pinned {
			zone, hasZone = v.pinZone, true
		}
		pick := func(used, zoneOnly bool) int {
			target := -1
			for hi := range r.free {
				h := &r.free[hi]
				if h.used != used || h.freeCPU < need-1e-9 || h.freeMem < memMB || h.slots <= 0 {
					continue
				}
				if v.pooled && !slices.Contains(v.pool, h.name) {
					continue
				}
				if zoneOnly && hasZone && h.zone != zone {
					continue
				}
				if target < 0 || h.freeCPU > r.free[target].freeCPU {
					target = hi
				}
				if !used {
					break // first empty host (they are interchangeable)
				}
			}
			return target
		}
		target := pick(true, true)
		if target < 0 {
			target = pick(false, true)
		}
		// A pinned application never spills to another zone; unpinned apps
		// fall back to any host (the original worst-fit).
		if target < 0 && !v.pinned {
			target = pick(true, false)
		}
		if target < 0 && !v.pinned {
			target = pick(false, false)
		}
		if target < 0 {
			return false, i
		}
		h := &r.free[target]
		h.used = true
		h.freeCPU -= need
		h.freeMem -= memMB
		h.slots--
		r.target[i] = target
		if !hasZone {
			r.appZone[v.appNo], r.appZoneSet[v.appNo] = h.zone, true
		}
	}
	return true, -1
}

// packed materialises a successful binPack: the assignment merged over the
// scope's fixed remainder, with exactly the used hosts powered on.
func (r *reduction) packed() cluster.Config {
	cfg := r.scope.fixed.Clone()
	for _, i := range r.order {
		cfg.Place(r.ids[i], r.free[r.target[i]].name, r.cpu[i])
	}
	for _, h := range r.free {
		if h.used {
			cfg.SetHostOn(h.name, true)
		}
	}
	return cfg
}
