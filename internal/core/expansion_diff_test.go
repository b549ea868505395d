package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/mistralcloud/mistral/internal/cluster"
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
	for _, name := range e.utilNames {
		rt, ok := base.RTSec[name]
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
			children := 0
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
						children++
					}
				}
			}
			if children < 1000 {
				t.Fatalf("only %d children measured", children)
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
// Action on the parent configuration bit for bit — under steady states that
// put applications on both sides of their response-time target and leave
// some unevaluated.
func TestExpansionMatchesReference(t *testing.T) {
	for _, de := range diffEnvs(t) {
		de := de
		t.Run(de.name, func(t *testing.T) {
			e, cat := de.e.eval, de.e.cat
			rng := rand.New(rand.NewPCG(29, uint64(len(cat.VMIDs()))))
			price := pricer{e: e}
			var childView cluster.View
			var staged []cluster.Staged
			children, candidates := 0, 0
			for trial := 0; trial < 40; trial++ {
				cfg := wildConfig(de.e, rng)
				w := make(map[string]float64)
				base := Steady{Watts: 100 + 400*rng.Float64(), RTSec: make(map[string]float64)}
				for i, a := range de.e.apps {
					if i == 0 || rng.IntN(6) > 0 {
						w[a.Name] = 5 + 90*rng.Float64()
					}
					if rng.IntN(6) > 0 {
						base.RTSec[a.Name] = 0.8 * rng.Float64() // the target is 0.4 s
					}
				}
				price.setRates(w)
				if !price.setParent(cfg, base) {
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
