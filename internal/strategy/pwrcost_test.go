package strategy

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
)

func TestPwrCostScalesUpWhenTargetsViolated(t *testing.T) {
	l := newLab(t)
	pc := NewPwrCost(l.eval)
	rates := map[string]float64{"rubis1": 70, "rubis2": 30}
	// Default 40% allocations violate targets at these rates: the baseline
	// must act regardless of cost.
	d, err := pc.Decide(0, l.cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Invoked {
		t.Fatal("not invoked on first call")
	}
	if len(d.Plan) == 0 {
		t.Fatal("no plan despite violated targets")
	}
	final, _, err := cluster.ApplyAll(l.cat, l.cfg, d.Plan)
	if err != nil {
		t.Fatalf("plan infeasible: %v", err)
	}
	st, err := l.eval.Steady(final, rates)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range l.eval.Model().AppNames() {
		if a := l.eval.Utility().Apps[name]; st.RT[i] > a.TargetRT.Seconds() {
			t.Errorf("%s still violates after Pwr-Cost plan: %v > %v", name, st.RT[i], a.TargetRT.Seconds())
		}
	}
}

func TestPwrCostSkipsUnprofitableConsolidation(t *testing.T) {
	l := newLab(t)
	pc := NewPwrCost(l.eval)
	rates := map[string]float64{"rubis1": 20, "rubis2": 20}
	// First decision establishes the target-meeting configuration.
	d1, err := pc.Decide(0, l.cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	cfg := l.cfg
	if len(d1.Plan) > 0 {
		cfg, _, err = cluster.ApplyAll(l.cat, l.cfg, d1.Plan)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Identical rates: gated by rateEpsilon, no re-invocation.
	d2, err := pc.Decide(2*time.Minute, cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Invoked {
		t.Error("re-invoked without a workload change")
	}
	// A tiny change within epsilon also skips.
	d3, err := pc.Decide(4*time.Minute, cfg, map[string]float64{"rubis1": 20.2, "rubis2": 20.1})
	if err != nil {
		t.Fatal(err)
	}
	if d3.Invoked {
		t.Error("re-invoked within the rate epsilon")
	}
}

func TestControllerAppHostPoolsConstrainPlans(t *testing.T) {
	l := newLab(t)
	pools := map[string][]string{
		"rubis1": {"h0", "h1"},
		"rubis2": {"h2", "h3"},
	}
	ctrl, err := core.NewController(l.eval, core.ControllerOptions{
		Name:  "pooled",
		Scope: core.ScopeFull,
		Space: cluster.ActionSpace{Kinds: []cluster.ActionKind{
			cluster.ActionIncreaseCPU, cluster.ActionDecreaseCPU,
			cluster.ActionAddReplica, cluster.ActionRemoveReplica,
			cluster.ActionMigrate,
		}},
		AppHostPools: pools,
		Search:       core.SearchOptions{MaxExpansions: 400, TimePerChild: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every migration or replica addition a pooled controller plans must
	// target the acting application's pool. (Pre-existing out-of-pool
	// placements may persist: repatriating them costs transients a
	// cost-aware controller rightly refuses to pay without benefit.)
	inPool := func(appName, host string) bool {
		for _, h := range pools[appName] {
			if h == host {
				return true
			}
		}
		return false
	}
	cfg := l.cfg
	for i, r := range []float64{30, 70, 45} {
		d, err := ctrl.Decide(time.Duration(i)*2*time.Minute, cfg, map[string]float64{"rubis1": r, "rubis2": r - 10})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range d.Plan {
			if a.Kind != cluster.ActionMigrate && a.Kind != cluster.ActionAddReplica {
				continue
			}
			vm, _ := l.cat.VM(a.VM)
			if !inPool(vm.App, a.Host) {
				t.Errorf("step %d: action %s targets host outside %s's pool", i, a, vm.App)
			}
		}
		if len(d.Plan) == 0 {
			continue
		}
		next, _, err := cluster.ApplyAll(l.cat, cfg, d.Plan)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		cfg = next
	}
}
