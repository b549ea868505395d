package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// The reference implementation: how the Perf-Pwr optimizer built and scored
// reduction candidates before it scored them as patches of one loaded solver
// state — a map-typed state, one configuration built per candidate, sorting
// folds. Kept here so the differential tests below can hold the dense
// pipeline to it, candidate by candidate.

type refState map[cluster.VMID]float64 // active managed VMs and their CPU

func (s refState) clone() refState {
	n := make(refState, len(s))
	for id, c := range s {
		n[id] = c
	}
	return n
}

func (s refState) sortedVMs() []cluster.VMID {
	ids := make([]cluster.VMID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func refActiveReplicas(cat *cluster.Catalog, s refState, k cluster.TierKey) []cluster.VMID {
	var out []cluster.VMID
	for _, id := range cat.TierVMs(k) {
		if _, ok := s[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// refSpreadConfig places the state's VMs round-robin over the hosts on top
// of the fixed remainder.
func refSpreadConfig(s refState, fixed cluster.Config, hosts []string) cluster.Config {
	cfg := fixed.Clone()
	for _, h := range hosts {
		cfg.SetHostOn(h, true)
	}
	for i, id := range s.sortedVMs() {
		cfg.Place(id, hosts[i%len(hosts)], s[id])
	}
	return cfg
}

func refMeanAllocUtil(s refState, rates map[string]float64, e *Evaluator, fixed cluster.Config) float64 {
	var totalDemand, totalAlloc float64
	for _, id := range s.sortedVMs() {
		vm, _ := e.cat.VM(id)
		spec := e.model.Apps()[vm.App]
		k := cluster.TierKey{App: vm.App, Tier: vm.Tier}
		n := len(refActiveReplicas(e.cat, s, k))
		for _, rid := range e.cat.TierVMs(k) {
			if fixed.Active(rid) {
				n++
			}
		}
		probs := spec.MixProbabilities()
		var demandMS float64
		for i, txn := range spec.Txns {
			demandMS += probs[i] * txn.DemandMS[vm.Tier]
		}
		totalDemand += rates[vm.App] * demandMS / 1000 / float64(n)
		totalAlloc += s[id] / 100
	}
	if totalAlloc <= 0 {
		return 0
	}
	return totalDemand / totalAlloc
}

func refSumRT(st Steady) float64 {
	names := make([]string, 0, len(st.RTSec))
	for name := range st.RTSec {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	for _, name := range names {
		sum += st.RTSec[name]
	}
	return sum
}

// refPolish is the hill-climb with one cloned configuration per move.
func refPolish(e *Evaluator, cfg cluster.Config, rates map[string]float64, managed map[cluster.VMID]bool, scope packScope) (cluster.Config, Steady, error) {
	cat := e.cat
	cur, err := e.Steady(cfg, rates)
	if err != nil {
		return cluster.Config{}, Steady{}, err
	}
	for iter := 0; iter < 64; iter++ {
		improved := false
		for _, id := range cfg.ActiveVMs() {
			if !managed[id] {
				continue
			}
			p, _ := cfg.PlacementOf(id)
			spec, _ := cat.Host(p.Host)
			for _, delta := range []float64{cat.CPUStepPct, -cat.CPUStepPct} {
				next := p.CPUPct + delta
				if next < cat.MinCPUPct-1e-9 || next > spec.UsableCPUPct+1e-9 {
					continue
				}
				if delta > 0 && cfg.AllocatedCPU(p.Host)+delta > spec.UsableCPUPct+1e-9 {
					continue
				}
				cand := cfg.Clone()
				cand.Place(id, p.Host, next)
				st, err := e.Steady(cand, rates)
				if err != nil {
					return cluster.Config{}, Steady{}, err
				}
				if st.NetRate() > cur.NetRate()+1e-12 && scope.meetsTargets(st, rates) {
					cfg, cur = cand, st
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

// cacheContents flattens an evaluator's memo cache.
func cacheContents(e *Evaluator) map[steadyKey]Steady {
	out := make(map[steadyKey]Steady, len(e.memo))
	for k, s := range e.memo {
		out[k] = *s
	}
	return out
}

func sameSteadyBits(a, b Steady) bool {
	if math.Float64bits(a.PerfRate) != math.Float64bits(b.PerfRate) ||
		math.Float64bits(a.PowerRate) != math.Float64bits(b.PowerRate) ||
		math.Float64bits(a.Watts) != math.Float64bits(b.Watts) ||
		a.Saturated != b.Saturated || len(a.RTSec) != len(b.RTSec) {
		return false
	}
	for name, rt := range a.RTSec {
		if brt, ok := b.RTSec[name]; !ok || math.Float64bits(rt) != math.Float64bits(brt) {
			return false
		}
	}
	return true
}

// unevenRates is a workload with every application at a different rate.
func unevenRates(e *env) map[string]float64 {
	w := make(map[string]float64, len(e.apps))
	for i, a := range e.apps {
		w[a.Name] = []float64{32, 57, 18, 44}[i%4]
	}
	return w
}

// TestPerfPwrCandidatesMatchReference walks one full PerfPwr sweep per lab
// iteration by iteration. In every iteration it builds each reduction
// candidate the old way (refSpreadConfig + Evaluator.Steady on a second
// evaluator), scores the same candidate on the dense reduction's loaded
// solver state, and holds the two to each other bit for bit: performance
// rate, summed response times, ρ and the hard-target verdict. Then both
// sides pick their winner and the states must still agree. The third lab
// runs under response-time ceilings tight enough to rule candidates out.
func TestPerfPwrCandidatesMatchReference(t *testing.T) {
	for _, lab := range []struct {
		hosts, apps int
		targetSec   float64
	}{{4, 2, 0}, {8, 4, 0}, {4, 2, 0.25}} {
		e, refEnv := newEnv(t, lab.hosts, lab.apps), newEnv(t, lab.hosts, lab.apps)
		ref := refEnv.eval
		cat := e.cat
		w := unevenRates(e)
		hosts := cat.HostNames()
		scope := packScope{managed: cat.VMIDs(), fixed: cluster.NewConfig(), allowReplicaRemoval: true}
		if lab.targetSec > 0 {
			scope.rtTargets = make(map[string]float64)
			for _, a := range e.apps {
				scope.rtTargets[a.Name] = lab.targetSec
			}
		}
		plan := newPackPlan(e.eval, w, scope, hosts)
		managed := make(map[cluster.VMID]bool)
		for _, id := range scope.managed {
			managed[id] = true
		}

		candidates, ruledOut := 0, 0
		for n := len(hosts); n >= plan.floor(); n-- {
			r := newReduction(plan, n, false)
			feasible, err := r.start()
			defer r.close()
			if err != nil {
				t.Fatal(err)
			}
			state := make(refState)
			for _, id := range scope.managed {
				state[id] = cat.MaxVMCPUPct()
			}
			st, err := ref.Steady(refSpreadConfig(state, scope.fixed, hosts[:n]), w)
			if err != nil {
				t.Fatal(err)
			}
			if meets := scope.meetsTargets(st, w); feasible != meets {
				t.Fatalf("%d hosts: start = %v, the built start meets targets: %v", n, feasible, meets)
			} else if !meets {
				continue
			}
			curRho, curPerf := refMeanAllocUtil(state, w, ref, scope.fixed), st.PerfRate

			packed := false
			for iter := 0; iter < 10000; iter++ {
				ok, blocked := r.binPack()
				if ok {
					packed = true
					break
				}
				type cand struct {
					state          refState
					rho, perf      float64
					gradient, sumR float64
				}
				var cands []cand
				// consider scores one candidate both ways: s built and
				// solved, got on the reduction's loaded state.
				consider := func(s refState, got move, gotMeets bool) {
					what := fmt.Sprintf("%d hosts, iteration %d, candidate %d (vm %d, remove %v)", n, iter, candidates, got.vm, got.remove)
					candidates++
					st, err := ref.Steady(refSpreadConfig(s, scope.fixed, hosts[:n]), w)
					if err != nil {
						t.Fatal(err)
					}
					rho := refMeanAllocUtil(s, w, ref, scope.fixed)
					if math.Float64bits(got.perf) != math.Float64bits(st.PerfRate) ||
						math.Float64bits(got.rt) != math.Float64bits(refSumRT(st)) ||
						math.Float64bits(got.rho) != math.Float64bits(rho) {
						t.Fatalf("%s: scored (perf %v, ΣRT %v, ρ %v), built (%v, %v, %v)",
							what, got.perf, got.rt, got.rho, st.PerfRate, refSumRT(st), rho)
					}
					if meets := scope.meetsTargets(st, w); gotMeets != meets {
						t.Fatalf("%s: target verdict %v, built %v", what, gotMeets, meets)
					} else if !meets {
						ruledOut++
						return
					}
					dRho, dPerf := rho-curRho, curPerf-st.PerfRate
					g := math.Inf(1)
					if dPerf > 1e-12 {
						g = dRho / dPerf
					} else if dRho <= 1e-12 {
						g = 0
					}
					cands = append(cands, cand{s, rho, st.PerfRate, g, refSumRT(st)})
				}
				index := func(id cluster.VMID) int {
					i, _ := slices.BinarySearch(r.ids, id)
					return i
				}
				for _, id := range state.sortedVMs() {
					if state[id]-cat.CPUStepPct >= cat.MinCPUPct-1e-9 {
						s := state.clone()
						s[id] -= cat.CPUStepPct
						got, meets := r.try(move{vm: index(id)})
						consider(s, got, meets)
					}
				}
				for _, k := range cat.Tiers() {
					if active := refActiveReplicas(cat, state, k); len(active) > 1 {
						s := state.clone()
						delete(s, active[len(active)-1])
						got, meets := r.try(move{vm: index(active[len(active)-1]), remove: true})
						consider(s, got, meets)
					}
				}
				if moved := r.reduce(blocked); moved != (len(cands) > 0) {
					t.Fatalf("%d hosts, iteration %d: reduce moved = %v with %d reference candidates", n, iter, moved, len(cands))
				} else if !moved {
					break
				}
				best := cands[0]
				for _, c := range cands[1:] {
					if c.gradient > best.gradient || (c.gradient == best.gradient && c.sumR < best.sumR) {
						best = c
					}
				}
				state, curRho, curPerf = best.state, best.rho, best.perf

				if math.Float64bits(r.curRho) != math.Float64bits(curRho) || math.Float64bits(r.curPerf) != math.Float64bits(curPerf) {
					t.Fatalf("%d hosts, iteration %d: (ρ, perf) = (%v, %v), reference (%v, %v)", n, iter, r.curRho, r.curPerf, curRho, curPerf)
				}
				for i, id := range r.ids {
					cpu, active := state[id]
					if active != r.active[i] || (active && math.Float64bits(cpu) != math.Float64bits(r.cpu[i])) {
						t.Fatalf("%d hosts, iteration %d: VM %s is (%v, %v), reference (%v, %v)", n, iter, id, r.active[i], r.cpu[i], active, cpu)
					}
				}
			}
			if !packed {
				continue
			}
			cfg := r.packed()
			got, gotSt, err := plan.polish(cfg.Clone())
			if err != nil {
				t.Fatal(err)
			}
			want, wantSt, err := refPolish(ref, cfg, w, managed, scope)
			if err != nil {
				t.Fatal(err)
			}
			if got.Fingerprint() != want.Fingerprint() || !sameSteadyBits(gotSt, wantSt) {
				t.Fatalf("%d hosts: polished ideal differs from the reference", n)
			}
		}

		if candidates < 100 {
			t.Fatalf("%d apps: only %d candidates walked", lab.apps, candidates)
		}
		if (lab.targetSec > 0) != (ruledOut > 0) {
			t.Fatalf("%d apps, target %v s: %d candidates ruled out by targets", lab.apps, lab.targetSec, ruledOut)
		}
		t.Logf("%d apps, target %v s: %d reduction candidates, %d ruled out", lab.apps, lab.targetSec, candidates, ruledOut)
	}
}

// sameCaches fails unless the evaluator that scored through overlays holds
// exactly the reference's evaluations, bit for bit.
func sameCaches(t *testing.T, what string, overlay, ref *Evaluator) {
	t.Helper()
	got, want := cacheContents(overlay), cacheContents(ref)
	if len(got) != len(want) {
		t.Errorf("%s: %d cached evaluations, reference built %d", what, len(got), len(want))
	}
	for k, wst := range want {
		if gst, ok := got[k]; !ok {
			t.Fatalf("%s: reference candidate %v was never scored", what, k.fp)
		} else if !sameSteadyBits(gst, wst) {
			t.Fatalf("%s: candidate %v: overlay-scored %+v, built %+v", what, k.fp, gst, wst)
		}
	}
}

// TestTuneDVFSMatchesReference holds tuneDVFS's session-scored frequency
// levels on DVFS-capable hosts to a clone-per-candidate replay on a second
// evaluator, in a quiet phase where downclocking pays.
func TestTuneDVFSMatchesReference(t *testing.T) {
	dvfs := func(h *cluster.HostSpec) { h.DVFSLevels = []float64{0.6, 0.8} }
	e := newEnv(t, 4, 2, dvfs)
	ref := newEnv(t, 4, 2, dvfs).eval
	w := map[string]float64{"rubis1": 9, "rubis2": 14}
	guard := map[string]float64{"rubis1": 9 * 1.3, "rubis2": 14 * 1.3}
	targets := make(map[string]float64)
	for name, a := range ref.util.Apps {
		targets[name] = a.TargetRT.Seconds()
	}
	meets := packScope{rtTargets: targets}.meetsTargets

	st, err := e.eval.Steady(e.cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tuneDVFS(e.eval, Ideal{Config: e.cfg, Steady: st}, w, packScope{})
	if err != nil {
		t.Fatal(err)
	}

	st, err = ref.Steady(e.cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	want := Ideal{Config: e.cfg, Steady: st}
	if gst, err := ref.Steady(want.Config, guard); err != nil || !meets(gst, guard) {
		t.Fatalf("fixture has no DVFS slack (err %v)", err)
	}
	for improved := true; improved; {
		improved = false
		for _, h := range want.Config.ActiveHosts() {
			spec, _ := e.cat.Host(h)
			for _, f := range spec.DVFSLevels {
				if f == want.Config.HostFreq(h) {
					continue
				}
				cand := want.Config.Clone()
				cand.SetHostFreq(h, f)
				st, err := ref.Steady(cand, w)
				if err != nil {
					t.Fatal(err)
				}
				if st.NetRate() <= want.Steady.NetRate()+1e-12 || !meets(st, w) {
					continue
				}
				gst, err := ref.Steady(cand, guard)
				if err != nil {
					t.Fatal(err)
				}
				if !meets(gst, guard) {
					continue
				}
				want = Ideal{Config: cand, Steady: st}
				improved = true
			}
		}
	}
	if want.Config.Fingerprint() == e.cfg.Fingerprint() {
		t.Fatal("fixture never downclocks: the overlay path went unexercised")
	}
	if got.Config.Fingerprint() != want.Config.Fingerprint() || !sameSteadyBits(got.Steady, want.Steady) ||
		got.Config.Fingerprint() != got.Config.RecomputeFingerprint() {
		t.Fatal("tuneDVFS differs from the clone-per-level reference")
	}
	sameCaches(t, "tuneDVFS", e.eval, ref)
}

// TestPerfPwrAllocationCeilings bounds the garbage of the hot paths on the
// 4-app lab: a steady cache miss may allocate only what it keeps (the
// Steady, its response-time map, amortised cache growth), scoring a reduction candidate allocates nothing at all, and a
// whole cold PerfPwr call — plan, arms, packed configurations, polish —
// stays under 1 000 allocations however many candidates it scores.
func TestPerfPwrAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under the race detector")
	}
	e := newEnv(t, 8, 4)
	w := unevenRates(e)

	// Distinct configurations, so every Steady below is a miss.
	const runs = 200
	cfgs := make([]cluster.Config, runs+1)
	for i := range cfgs {
		cfgs[i] = e.cfg.Clone()
		cfgs[i].Place("rubis1-web-0", "h0", 20+0.01*float64(i))
	}
	rfp := e.eval.RatesFingerprint(w)
	next := 0
	perMiss := testing.AllocsPerRun(runs, func() {
		if _, err := e.eval.SteadyFP(cfgs[next], w, rfp); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if st := e.eval.CacheStats(); st.Misses != runs+1 || st.Hits != 0 {
		t.Fatalf("fixture did not miss every time: %+v", st)
	}
	if perMiss > 8 {
		t.Errorf("steady cache miss allocates %.1f times, ceiling 8", perMiss)
	}

	scope := packScope{managed: e.cat.VMIDs(), fixed: cluster.NewConfig(), allowReplicaRemoval: true}
	r := newReduction(newPackPlan(e.eval, w, scope, e.cat.HostNames()), 6, false)
	if ok, err := r.start(); err != nil || !ok {
		t.Fatalf("start = %v, %v", ok, err)
	}
	defer r.close()
	replicated := slices.IndexFunc(r.tierVMs, func(vms []int) bool { return len(vms) > 1 })
	victim := r.tierVMs[replicated][1]
	if perCandidate := testing.AllocsPerRun(100, func() {
		r.try(move{vm: 3})
		r.try(move{vm: victim, remove: true})
	}); perCandidate != 0 {
		t.Errorf("scoring a cut and a removal allocates %.1f times, want 0", perCandidate)
	}

	perCall := testing.AllocsPerRun(1, func() {
		e.eval.BeginWindow()
		if _, err := PerfPwr(e.eval, w, PerfPwrOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if evals := e.eval.Evals(); perCall > 1000 || evals < 4000 {
		t.Errorf("cold PerfPwr allocates %.0f times for %d evaluations, ceiling 1000 for at least 4000", perCall, evals)
	} else {
		t.Logf("steady miss: %.1f allocs; cold PerfPwr: %.0f allocs for %d evaluations", perMiss, perCall, evals)
	}
}
