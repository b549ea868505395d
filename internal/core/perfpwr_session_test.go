package core

import (
	"math"
	"reflect"
	"testing"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

// twoZones splits a lab's hosts over two data centers.
func twoZones(h *cluster.HostSpec) {
	h.Zone = "dc0"
	if h.Name >= "h2" {
		h.Zone = "dc1"
	}
}

// TestPerfPwrWorkersDeterminism runs the sweep twice on an emptied memo: the
// ideal and the number of evaluations behind it repeat exactly, on the 4-app
// lab and on a two-zone lab whose arms pair up and whose VMs are pinned.
func TestPerfPwrWorkersDeterminism(t *testing.T) {
	for _, lab := range []*env{newEnv(t, 8, 4), newEnv(t, 4, 2, twoZones)} {
		w := unevenRates(lab)
		opts := PerfPwrOptions{VMZonePins: VMZonePinsOf(lab.cat, lab.cfg)}
		var want Ideal
		var wantEvals int
		for run := 0; run < 2; run++ {
			lab.eval.BeginWindow()
			got, err := PerfPwr(lab.eval, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				want, wantEvals = got, lab.eval.Evals()
			} else if !reflect.DeepEqual(got, want) || lab.eval.Evals() != wantEvals {
				t.Fatalf("second sweep: ideal or evaluation count (%d, first %d) diverges",
					lab.eval.Evals(), wantEvals)
			}
		}
	}
}

// TestReductionReturnsItsSession drives reduction.run through each of its
// exits — infeasible start, evaluation error, converged, fully reduced but
// unpackable — and requires the solver session to be closed after every one.
func TestReductionReturnsItsSession(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := unevenRates(e)
	hosts := e.cat.HostNames()
	full := packScope{managed: e.cat.VMIDs(), fixed: cluster.NewConfig(), allowReplicaRemoval: true}
	hopeless := full
	hopeless.rtTargets = []float64{1e-6, math.Inf(1)} // rubis1, rubis2
	for _, c := range []struct {
		exit   string
		scope  packScope
		rates  map[string]float64
		nHosts int
		ok     bool
		err    bool
	}{
		{"infeasible start", hopeless, w, 4, false, false},
		{"evaluation error", full, map[string]float64{"stranger": 1}, 4, false, true},
		{"converged", full, w, 4, true, false},
		{"unpackable", full, w, 1, false, false}, // six required tiers, four VM slots
	} {
		r := newReduction(mustPlan(e.eval, c.rates, c.scope, hosts), c.nHosts, false)
		_, ok, err := r.run()
		if ok != c.ok || (err != nil) != c.err {
			t.Errorf("%s: run = %v, %v", c.exit, ok, err)
		}
		if r.sess != nil {
			t.Errorf("%s: the arm's solver session was left open", c.exit)
		}
	}
}

// TestTwinReplaysTrail holds the paired sweep unit to its solo form: the
// no-affinity arm that follows its twin's trail packs the configuration it
// packs alone, pinned blockers included, for fewer evaluations.
func TestTwinReplaysTrail(t *testing.T) {
	e := newEnv(t, 4, 2, twoZones)
	w := unevenRates(e)
	hosts := e.cat.HostNames()
	scope := packScope{managed: e.cat.VMIDs(), fixed: cluster.NewConfig(), allowReplicaRemoval: true,
		zonePins: VMZonePinsOf(e.cat, e.cfg)}
	plan := mustPlan(e.eval, w, scope, hosts)
	saved := 0
	for n := len(hosts); n >= plan.floor(); n-- {
		run := func(noAffinity bool, trail *[]step) (cluster.Config, bool, int) {
			e.eval.BeginWindow()
			r := newReduction(plan, n, noAffinity)
			r.trail = trail
			cfg, ok, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			return cfg, ok, e.eval.Evals()
		}
		solo, soloOK, soloEvals := run(true, nil)
		var trail []step
		run(false, &trail)
		twin, twinOK, twinEvals := run(true, &trail)
		if twinOK != soloOK || twin.Fingerprint() != solo.Fingerprint() {
			t.Fatalf("%d hosts: the replaying arm packed %v (%v), alone %v (%v)", n, twin, twinOK, solo, soloOK)
		}
		if twinEvals > soloEvals {
			t.Errorf("%d hosts: replaying cost %d evaluations, alone %d", n, twinEvals, soloEvals)
		}
		saved += soloEvals - twinEvals
	}
	if saved == 0 {
		t.Error("no arm saved an evaluation by replaying its twin")
	}
}

// TestMinHostsNeededUsesCatalogMemory pins the sweep's floor to the
// catalog's VM sizes: a bound that assumed 200 MB replicas never tried the
// single host that holds a lab of 128 MB VMs.
func TestMinHostsNeededUsesCatalogMemory(t *testing.T) {
	for _, c := range []struct{ vmMB, want int }{{128, 1}, {200, 2}, {400, 3}} {
		apps := []*app.Spec{app.RUBiS("rubis1"), app.RUBiS("rubis2")}
		for _, a := range apps {
			for i := range a.Tiers {
				a.Tiers[i].VMMemoryMB = c.vmMB
			}
		}
		hosts := make([]cluster.HostSpec, 4)
		for i := range hosts {
			hosts[i] = cluster.DefaultHostSpec("h" + string(rune('0'+i)))
			// Roomy in everything but memory: 8 slots, two cores.
			hosts[i].MaxVMs, hosts[i].TotalCPUPct, hosts[i].UsableCPUPct = 8, 200, 160
		}
		e := buildEnv(t, hosts, apps)
		if got := fullFloor(e, e.cat.HostNames()); got != c.want {
			t.Errorf("%d MB VMs: floor = %d, want %d", c.vmMB, got, c.want)
		}
		if c.want > 1 {
			continue
		}
		// At a trickle of load one host is the ideal; the 200 MB bound
		// started the sweep at two.
		ideal, err := PerfPwr(e.eval, rates(e, 2), PerfPwrOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if n := ideal.Config.NumActiveHosts(); n != 1 {
			t.Errorf("%d MB VMs: ideal uses %d hosts, want the 1-host packing", c.vmMB, n)
		}
	}
}

// TestMinHostsNeededOnMixedHosts pins the sweep's floor to the hosts each arm
// actually packs onto, a prefix of the list: sized from the first host
// alone, a list that opens with a small one started the sweep at three hosts
// and never tried the two that hold everything, while one large host first
// holds everything alone. A list too small for anything still runs its one
// arm.
func TestMinHostsNeededOnMixedHosts(t *testing.T) {
	apps := []*app.Spec{app.RUBiS("rubis1"), app.RUBiS("rubis2")}
	hosts := make([]cluster.HostSpec, 4)
	for i := range hosts {
		hosts[i] = cluster.DefaultHostSpec("h" + string(rune('0'+i)))
		if i == 0 {
			hosts[i].MaxVMs = 2 // six required tiers: three such hosts
			continue
		}
		hosts[i].MaxVMs, hosts[i].TotalCPUPct, hosts[i].UsableCPUPct, hosts[i].MemoryMB = 8, 200, 160, 2048
	}
	e := buildEnv(t, hosts, apps)
	names := e.cat.HostNames()
	for _, c := range []struct {
		list []string
		want int
	}{
		{names, 2},                            // the small host and one large one
		{[]string{"h1", "h2", "h3", "h0"}, 1}, // one large host holds every tier
		{[]string{"h1"}, 1},
		{names[:1], 1}, // nothing fits: the largest arm runs regardless
	} {
		if got := fullFloor(e, c.list); got != c.want {
			t.Errorf("hosts %v: floor = %d, want %d", c.list, got, c.want)
		}
	}
	// At a trickle of load the worst-fit packing fills the small host and one
	// large one.
	ideal, err := PerfPwr(e.eval, rates(e, 2), PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := ideal.Config.NumActiveHosts(); n != 2 {
		t.Errorf("ideal uses %d hosts, want the 2-host packing", n)
	}
}
