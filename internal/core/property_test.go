package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/sim"
)

// randomCandidate builds a random valid configuration for property tests.
func randomCandidate(cat *cluster.Catalog, rng *sim.RNG) (cluster.Config, bool) {
	hosts := cat.HostNames()
	cfg := cluster.NewConfig()
	nOn := 1 + rng.IntN(len(hosts))
	for _, i := range rng.Perm(len(hosts))[:nOn] {
		cfg.SetHostOn(hosts[i], true)
	}
	on := cfg.ActiveHosts()
	place := func(id cluster.VMID) bool {
		cpu := cat.MinCPUPct + float64(rng.IntN(3))*cat.CPUStepPct
		start := rng.IntN(len(on))
		for i := 0; i < len(on); i++ {
			h := on[(start+i)%len(on)]
			spec, _ := cat.Host(h)
			if cfg.AllocatedCPU(h)+cpu <= spec.UsableCPUPct && len(cfg.VMsOnHost(h)) < spec.MaxVMs {
				cfg.Place(id, h, cpu)
				return true
			}
		}
		return false
	}
	for _, k := range cat.Tiers() {
		ids := cat.TierVMs(k)
		if !place(ids[rng.IntN(len(ids))]) {
			return cluster.Config{}, false
		}
	}
	return cfg, cfg.IsCandidate(cat)
}

// Property: from any valid starting configuration and workload, the
// Self-Aware search returns a feasible plan ending in a candidate
// configuration whose Eq. 3 utility is at least the stay-put utility.
func TestSearchSoundnessProperty(t *testing.T) {
	e := newEnv(t, 4, 2)
	rng := sim.NewRNG(2024, 7)
	s := NewSearcher(e.eval, SearchOptions{SelfAware: true, MaxExpansions: 250})

	prop := func(rate8 uint8, cwMin uint8) bool {
		cfg, ok := randomCandidate(e.cat, rng)
		if !ok {
			return true
		}
		rate := 5 + float64(rate8%90)
		w := rates(e, rate)
		cw := time.Duration(4+int(cwMin%26)) * time.Minute

		e.eval.BeginWindow()
		ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
		if err != nil {
			t.Logf("PerfPwr: %v", err)
			return false
		}
		res, err := s.Search(cfg, w, cw, ideal, ExpectedUtility{}, cluster.ActionSpace{})
		if err != nil {
			t.Logf("Search: %v", err)
			return false
		}
		final, _, err := cluster.ApplyAll(e.cat, cfg, res.Plan)
		if err != nil {
			t.Logf("plan infeasible: %v (%s)", err, cluster.PlanString(res.Plan))
			return false
		}
		if len(res.Plan) > 0 && !final.IsCandidate(e.cat) {
			t.Logf("plan ends in intermediate: %s", final)
			return false
		}
		st, err := e.eval.Steady(cfg, w)
		if err != nil {
			return false
		}
		stay := cw.Seconds() * st.NetRate()
		if res.Utility < stay-1e-9 {
			t.Logf("plan utility %v below stay-put %v (rate %v cw %v)", res.Utility, stay, rate, cw)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(25))}); err != nil {
		t.Error(err)
	}
}

// Property: the Perf-Pwr ideal is always a candidate configuration and its
// net rate dominates every random candidate's net rate up to a small
// heuristic tolerance — worst-fit packing plus gradient reduction is a
// heuristic (as in the paper), so placement-level Dom-0 coupling can leave
// a fraction of a percent on the table; the search's ε-margin absorbs it.
func TestIdealDominatesRandomCandidatesProperty(t *testing.T) {
	e := newEnv(t, 4, 2)
	rng := sim.NewRNG(99, 3)

	prop := func(rate8 uint8) bool {
		rate := 5 + float64(rate8%60) // within the range all placements can serve
		w := rates(e, rate)
		e.eval.BeginWindow()
		ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
		if err != nil {
			return false
		}
		if !ideal.Config.IsCandidate(e.cat) {
			return false
		}
		for i := 0; i < 5; i++ {
			cfg, ok := randomCandidate(e.cat, rng)
			if !ok {
				continue
			}
			st, err := e.eval.Steady(cfg, w)
			if err != nil {
				return false
			}
			tol := 0.02*abs(ideal.Steady.NetRate()) + 1e-4
			if st.NetRate() > ideal.Steady.NetRate()+tol {
				t.Logf("random candidate beats ideal at rate %v: %v > %v (%s)",
					rate, st.NetRate(), ideal.Steady.NetRate(), cfg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: ConfigDistance is zero iff configurations are equal (over the
// random candidate family) and symmetric in its placement/host terms'
// contribution to zero.
func TestConfigDistanceProperty(t *testing.T) {
	e := newEnv(t, 4, 2)
	rng := sim.NewRNG(7, 11)
	prop := func() bool {
		a, ok1 := randomCandidate(e.cat, rng)
		b, ok2 := randomCandidate(e.cat, rng)
		if !ok1 || !ok2 {
			return true
		}
		if ConfigDistance(a, a) != 0 || ConfigDistance(b, b) != 0 {
			return false
		}
		dab := ConfigDistance(a, b)
		if a.Equal(b) {
			return dab == 0
		}
		return dab > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(100))}); err != nil {
		t.Error(err)
	}
}
