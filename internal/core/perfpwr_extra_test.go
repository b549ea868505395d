package core

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
)

func TestPerfPwrMeetingTargets(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 60)
	ideal, err := PerfPwrMeetingTargets(e.eval, w)
	if err != nil {
		t.Fatal(err)
	}
	if !ideal.Config.IsCandidate(e.cat) {
		t.Fatalf("target-meeting ideal invalid: %v", ideal.Config.Validate(e.cat))
	}
	rt := RTByName(e.eval, ideal.Steady)
	for name, a := range e.eval.Utility().Apps {
		if rt := rt[name]; rt > a.TargetRT.Seconds() {
			t.Errorf("%s RT %v exceeds target %v", name, rt, a.TargetRT.Seconds())
		}
	}
	// The unconstrained optimizer at the same rates may shave capacity
	// below the targets; the constrained one must not, even if that costs
	// power.
	e.eval.BeginWindow()
	free, err := PerfPwr(e.eval, w, PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Steady.Watts < free.Steady.Watts-1e-9 {
		t.Errorf("constrained optimizer uses less power (%v) than unconstrained (%v)?", ideal.Steady.Watts, free.Steady.Watts)
	}
}

func TestEvaluatePlan(t *testing.T) {
	e := newEnv(t, 4, 1)
	w := rates(e, 30)
	stay, err := EvaluatePlan(e.eval, e.cfg, nil, w, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.eval.Steady(e.cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	want := (10 * time.Minute).Seconds() * st.NetRate()
	if diff := stay - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("stay-put plan utility = %v, want %v", stay, want)
	}

	cheap := []cluster.Action{{Kind: cluster.ActionIncreaseCPU, VM: "rubis1-web-0"}}
	cheapU, err := EvaluatePlan(e.eval, e.cfg, cheap, w, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var dst string
	p, _ := e.cfg.PlacementOf("rubis1-db-0")
	for _, h := range e.cfg.ActiveHosts() {
		spec, _ := e.cat.Host(h)
		if h != p.Host && e.cfg.AllocatedCPU(h)+p.CPUPct <= spec.UsableCPUPct &&
			len(e.cfg.VMsOnHost(h)) < spec.MaxVMs {
			dst = h
			break
		}
	}
	if dst == "" {
		t.Skip("no feasible migration destination")
	}
	// The same plan with a round-trip migration bolted on reaches the same
	// final configuration but pays two migrations' transient costs.
	roundTrip := append([]cluster.Action{
		{Kind: cluster.ActionMigrate, VM: "rubis1-db-0", Host: dst},
		{Kind: cluster.ActionMigrate, VM: "rubis1-db-0", Host: p.Host},
	}, cheap...)
	bothU, err := EvaluatePlan(e.eval, e.cfg, roundTrip, w, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if bothU >= cheapU {
		t.Errorf("round-trip migration plan %v not below cheap plan %v", bothU, cheapU)
	}

	// Infeasible plans error.
	if _, err := EvaluatePlan(e.eval, e.cfg, []cluster.Action{{Kind: cluster.ActionMigrate, VM: "ghost", Host: "h0"}}, w, time.Minute); err == nil {
		t.Error("infeasible plan accepted")
	}
}
