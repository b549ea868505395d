package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/cost"
)

// The differential tests of the dense-view expansion: on seeded random
// configurations of the 2-app, 4-app and two-zone DVFS environments —
// oversubscribed hosts, dormant tiers, VMs on powered-off hosts, stale and
// unsupported DVFS entries included — and under the action spaces the
// controllers use (unrestricted, Kinds + Hosts, AppPools), everything the
// search now reads off arrays must equal, bit for bit, what it used to
// compute from built configurations through their maps.

type diffEnv struct {
	name   string
	e      *env
	spaces []cluster.ActionSpace
}

func diffEnvs(t *testing.T) []diffEnv {
	t.Helper()
	mk := func(name string, nHosts, nApps int, opts ...func(*cluster.HostSpec)) diffEnv {
		e := newEnv(t, nHosts, nApps, opts...)
		hosts := e.cat.HostNames()
		pools := map[string][]string{}
		for i, a := range e.apps[1:] { // the first application stays unpooled
			pools[a.Name] = []string{hosts[(2*i)%len(hosts)], hosts[(2*i+1)%len(hosts)]}
		}
		return diffEnv{name: name, e: e, spaces: []cluster.ActionSpace{
			{},
			{
				Kinds: []cluster.ActionKind{cluster.ActionIncreaseCPU, cluster.ActionDecreaseCPU, cluster.ActionMigrate, cluster.ActionSetDVFS},
				Hosts: hosts[:len(hosts)/2],
			},
			{AppPools: pools},
		}}
	}
	dvfsZones := func(h *cluster.HostSpec) {
		h.DVFSLevels = []float64{0.6, 0.8}
		h.Zone = "dc0"
		if h.Name >= "h2" {
			h.Zone = "dc1"
		}
	}
	return []diffEnv{
		mk("2apps", 4, 2),
		mk("4apps", 8, 4),
		mk("2apps-dvfs-2zones", 4, 2, dvfsZones),
	}
}

// wildConfig draws a configuration that fits the catalog and is otherwise
// unconstrained; half the draws start from the environment's default
// configuration and take a few mutations, so candidates and near-candidates
// are as common as wrecks.
func wildConfig(e *env, rng *rand.Rand) cluster.Config {
	cat := e.cat
	hosts, vms := cat.HostNames(), cat.VMIDs()
	cfg := cluster.NewConfig()
	n := 2 * len(vms)
	if rng.IntN(2) == 0 {
		cfg = e.cfg.Clone()
		n = rng.IntN(4)
	}
	for ; n > 0; n-- {
		h := hosts[rng.IntN(len(hosts))]
		id := vms[rng.IntN(len(vms))]
		switch rng.IntN(5) {
		case 0:
			cfg.SetHostOn(h, !cfg.HostOn(h))
		case 1:
			cfg.Unplace(id)
		case 2:
			if spec, _ := cat.Host(h); spec.SupportsDVFS() {
				cfg.SetHostFreq(h, []float64{0.6, 0.7, 0.8, 1}[rng.IntN(4)]) // 0.7 is not a level
			}
		default:
			cfg.Place(id, h, float64(10*(1+rng.IntN(9))))
		}
	}
	return cfg
}

// referenceAction is Evaluator.Action as it was before the pricer: the cost
// manager's map-based prediction (held to its own reference in the cost
// package) folded through the Steady's and the workload's maps.
func referenceAction(e *Evaluator, cfg cluster.Config, base Steady, a cluster.Action, rates map[string]float64) ActionCost {
	pred := e.costs.Predict(cfg, a, rates)
	var perf float64
	baseRT := RTByName(e, base)
	for _, name := range e.utilNames {
		rt, ok := baseRT[name]
		if ok {
			rt += pred.DeltaRTSec[name]
		}
		perf += e.util.PerfRate(name, rates[name], rt)
	}
	return ActionCost{Duration: pred.Duration, Rate: perf + e.util.PowerRate(base.Watts+pred.DeltaWatts)}
}

// TestDistancerMatches pins the contract the search relies on: the distancer
// folds the exact floating-point result of ConfigDistance — bit for bit, not
// approximately — both for a loaded configuration and for every child
// measured from the parent's term vector before the child exists.
func TestDistancerMatches(t *testing.T) {
	for _, de := range diffEnvs(t) {
		de := de
		t.Run(de.name, func(t *testing.T) {
			cat := de.e.cat
			rng := rand.New(rand.NewPCG(13, uint64(len(cat.VMIDs()))))
			var dc distancer
			var view cluster.View
			var staged []cluster.Staged
			// Children per fold class: a VM child active in the ideal, a VM
			// child dormant there (each resumes the fold at its position),
			// and a host-only child (the VM sum plus its mismatches).
			var idealVM, otherVM, hostOnly int
			for trial := 0; trial < 60; trial++ {
				ideal, cfg := wildConfig(de.e, rng), wildConfig(de.e, rng)
				if err := dc.reset(cat, ideal); err != nil {
					t.Fatal(err)
				}
				if !view.Load(cat, cfg) {
					t.Fatalf("trial %d: %s does not fit the catalog", trial, cfg)
				}
				if got, want := dc.load(&view), ConfigDistance(cfg, ideal); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: distancer %.17g != ConfigDistance %.17g", trial, got, want)
				}
				for _, space := range de.spaces {
					moves := space.Resolve(cat)
					staged = view.Expand(&moves, staged[:0])
					for i := range staged {
						st := &staged[i]
						built := cfg.Clone()
						built.ApplyDelta(st.Delta(cat))
						got, want := dc.child(&view, st), ConfigDistance(built, ideal)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("trial %d action %s: term-vector distance %.17g != built %.17g", trial, st.Action(cat), got, want)
						}
						switch {
						case st.VM < 0:
							hostOnly++
						case dc.ideal.VMHost[st.VM] >= 0:
							idealVM++
						default:
							otherVM++
						}
					}
				}
			}
			t.Logf("children measured: %d at ideal-VM positions, %d at other-VM positions, %d host-only", idealVM, otherVM, hostOnly)
			if idealVM+otherVM+hostOnly < 1000 || idealVM == 0 || otherVM == 0 || hostOnly == 0 {
				t.Fatalf("fixture too weak: %d ideal-VM, %d other-VM, %d host-only children", idealVM, otherVM, hostOnly)
			}
		})
	}
}

// TestExpansionMatchesReference holds the rest of the expansion step to the
// code it replaced: the generator yields exactly the actions Enumerate then
// Stage yield (cluster's own differential test holds those two to the old
// map-reading rules), in order, with equal filled actions and deltas; the
// view's candidate test equals IsCandidate on the parent and on every built
// child; and pricing a child through the loaded pricer equals the map-based
// Action on the parent configuration bit for bit, both through the bare
// pricer and through the entry cache the search prices from — under steady
// states that put applications on both sides of their response-time target
// and leave some unevaluated.
func TestExpansionMatchesReference(t *testing.T) {
	for _, de := range diffEnvs(t) {
		de := de
		t.Run(de.name, func(t *testing.T) {
			e, cat := de.e.eval, de.e.cat
			rng := rand.New(rand.NewPCG(29, uint64(len(cat.VMIDs()))))
			price := pricer{e: e}
			var costs entryCache
			var childView cluster.View
			var staged []cluster.Staged
			children, candidates := 0, 0
			for trial := 0; trial < 40; trial++ {
				cfg := wildConfig(de.e, rng)
				w := make(map[string]float64)
				base := Steady{Watts: 100 + 400*rng.Float64()}
				if rng.IntN(6) > 0 { // else a Steady with no response times
					base.RT = make([]float64, len(e.appNames))
					for i := range base.RT {
						base.RT[i] = 0.8 * rng.Float64() // the target is 0.4 s
					}
				}
				for i, a := range de.e.apps {
					if i == 0 || rng.IntN(6) > 0 {
						w[a.Name] = 5 + 90*rng.Float64()
					}
				}
				price.setRates(w)
				costs.reset(len(cat.VMIDs()))
				price.setBase(base)
				if !price.view.Load(cat, cfg) {
					t.Fatalf("trial %d: %s does not fit the catalog", trial, cfg)
				}
				if got, want := price.view.Candidate(), cfg.IsCandidate(cat); got != want {
					t.Fatalf("trial %d: Candidate = %t, IsCandidate = %t for %s", trial, got, want, cfg)
				}
				for si, space := range de.spaces {
					moves := space.Resolve(cat)
					staged = price.view.Expand(&moves, staged[:0])
					actions := cluster.Enumerate(cat, cfg, space)
					if len(staged) != len(actions) {
						t.Fatalf("trial %d space %d: generator yields %d actions, Enumerate %d", trial, si, len(staged), len(actions))
					}
					for i := range staged {
						st := &staged[i]
						filled, delta, err := cluster.Stage(cat, cfg, actions[i])
						if err != nil {
							t.Fatalf("trial %d: stage %s: %v", trial, actions[i], err)
						}
						if act, d := st.Action(cat), st.Delta(cat); act != filled || d != delta {
							t.Fatalf("trial %d space %d child %d:\n got %+v %+v\nwant %+v %+v", trial, si, i, act, d, filled, delta)
						}
						got := price.cost(st.Kind, int(st.VM), int(st.Host), -1)
						want := referenceAction(e, cfg, base, filled, w)
						if got.Duration != want.Duration || math.Float64bits(got.Rate) != math.Float64bits(want.Rate) {
							t.Fatalf("trial %d action %s: priced %v %.17g, reference %v %.17g", trial, filled, got.Duration, got.Rate, want.Duration, want.Rate)
						}
						if pub := e.Action(cfg, base, filled, w); pub != got {
							t.Fatalf("trial %d action %s: Evaluator.Action %+v, pricer %+v", trial, filled, pub, got)
						}
						if cached := price.costEntry(costs.get(&price, st), int(st.VM), int(st.Host), -1); cached != got {
							t.Fatalf("trial %d action %s: priced through the entry cache %+v, pricer %+v", trial, filled, cached, got)
						}
						built := cfg.Clone()
						built.ApplyDelta(delta)
						if !childView.Load(cat, built) {
							t.Fatalf("trial %d action %s: child does not fit the catalog", trial, filled)
						}
						isCand := built.IsCandidate(cat)
						if childView.Candidate() != isCand {
							t.Fatalf("trial %d action %s: Candidate = %t, IsCandidate = %t", trial, filled, !isCand, isCand)
						}
						if isCand {
							candidates++
						}
						children++
					}
				}
			}
			if children < 1000 || candidates == 0 || candidates == children {
				t.Fatalf("fixture too weak: %d children, %d candidates", children, candidates)
			}
		})
	}
}

// TestPredictEntryMatchesPredictView holds the search's split of the cost
// manager's prediction to the whole: on random configurations of the three
// environments, for every action kind (and two that are not kinds), every
// cataloged VM and none, and random rates and hosts, PredictEntry of the
// entry Lookup finds predicts what PredictView does, bit for bit. An
// unmeasured kind has no entry; the zero Entry the search's pricer then
// charges must predict nothing, as PredictView does.
func TestPredictEntryMatchesPredictView(t *testing.T) {
	for _, de := range diffEnvs(t) {
		de := de
		t.Run(de.name, func(t *testing.T) {
			m, cat := de.e.eval.costs, de.e.cat
			rng := rand.New(rand.NewPCG(41, uint64(len(cat.VMIDs()))))
			nApps, nVMs, nHosts := len(cat.Apps()), len(cat.VMIDs()), len(cat.HostNames())
			want, got := make([]float64, nApps), make([]float64, nApps)
			var view cluster.View
			measured, unmeasured := 0, 0
			for trial := 0; trial < 20; trial++ {
				if !view.Load(cat, wildConfig(de.e, rng)) {
					t.Fatalf("trial %d: configuration does not fit the catalog", trial)
				}
				for kind := cluster.ActionKind(-1); int(kind) <= entryKinds; kind++ {
					for vm := -1; vm < nVMs; vm++ {
						host, from := rng.IntN(nHosts+1)-1, rng.IntN(nHosts+1)-1
						rate := 100 * rng.Float64()
						wd, ww, wt := m.PredictView(&view, kind, vm, host, from, rate, want)
						entry, ok := m.Lookup(kind, vm, rate)
						gd, gw, gt := m.PredictEntry(&view, entry, vm, host, from, got)
						if ok {
							measured++
						} else {
							unmeasured++
							if wt != -1 || entry != (cost.Entry{}) {
								t.Fatalf("trial %d kind %d vm %d: unmeasured, yet target %d, entry %+v", trial, kind, vm, wt, entry)
							}
							gt = -1
						}
						if gd != wd || math.Float64bits(gw) != math.Float64bits(ww) || gt != wt {
							t.Fatalf("trial %d kind %d vm %d: PredictEntry %v %.17g %d, PredictView %v %.17g %d", trial, kind, vm, gd, gw, gt, wd, ww, wt)
						}
						for a := range want {
							if math.Float64bits(got[a]) != math.Float64bits(want[a]) {
								t.Fatalf("trial %d kind %d vm %d app %d: PredictEntry delta %.17g, PredictView %.17g", trial, kind, vm, a, got[a], want[a])
							}
						}
					}
				}
			}
			if measured < 1000 || unmeasured == 0 {
				t.Fatalf("fixture too weak: %d measured, %d unmeasured predictions", measured, unmeasured)
			}
		})
	}
}

// TestSearchPricesOnlySurvivors pins the two-phase expansion: a Self-Aware
// search on the 4-app lab whose budget trips on the first expansion cuts
// every expansion to its kept few, and only those are priced and
// fingerprinted — at most the children that survive the cut (the kept
// ones, plus a finished candidate, which needs neither, per expansion).
// The cut itself, and so the search's counts, are what they were when
// every child was priced first.
func TestSearchPricesOnlySurvivors(t *testing.T) {
	e := newEnv(t, 8, 4)
	w := rates(e, 55)
	ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	priced, fingerprinted := countChildWork(t)
	s := NewSearcher(e.eval, SearchOptions{SelfAware: true, MaxExpansions: 600})
	res, err := s.Search(e.cfg, w, 2*time.Hour, ideal, ExpectedUtility{}, cluster.ActionSpace{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Expanded != 46 || res.Generated != 7797 || res.PrunedChildren != 7388 {
		t.Fatalf("expanded %d, generated %d, pruned %d; want 46, 7797, 7388", res.Expanded, res.Generated, res.PrunedChildren)
	}
	survivors := res.Generated - res.PrunedChildren
	t.Logf("%d children generated, %d survive the cut, %d priced, %d fingerprinted", res.Generated, survivors, *priced, *fingerprinted)
	if *priced != *fingerprinted || *priced > survivors || *priced < survivors-res.Expanded {
		t.Fatalf("%d children priced and %d fingerprinted; want both the %d that survive the cut, less one finished candidate at most per expansion (%d)",
			*priced, *fingerprinted, survivors, res.Expanded)
	}
}
