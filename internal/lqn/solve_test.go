package lqn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

// labModel builds the shape of the experiments' labs — nApps RUBiS
// instances on 2·nApps hosts, every host DVFS-capable — optionally split
// over two zones. The model's first application has one database replica
// more than the catalog lists: a VM outside the catalog.
func labModel(t testing.TB, nApps, zones int) *Model {
	t.Helper()
	return labModelZoned(t, nApps, zones, zones > 1)
}

// labModelZoned is labModel whose hosts name their zones (dc0, dc1, …) only
// if named: a single zone can go by a name or by "".
func labModelZoned(t testing.TB, nApps, zones int, named bool) *Model {
	t.Helper()
	apps := make([]*app.Spec, nApps)
	for i := range apps {
		apps[i] = app.RUBiS(fmt.Sprintf("rubis%d", i+1))
	}
	modelApps := append([]*app.Spec{app.RUBiS("rubis1")}, apps[1:]...)
	modelApps[0].Tiers[2].MaxReplicas++
	hosts := make([]cluster.HostSpec, 2*nApps)
	for i := range hosts {
		hosts[i] = cluster.DefaultHostSpec(fmt.Sprintf("h%d", i))
		hosts[i].DVFSLevels = []float64{0.6, 0.8}
		if named {
			hosts[i].Zone = fmt.Sprintf("dc%d", i*zones/len(hosts))
		}
	}
	cat, err := app.BuildCatalog(hosts, apps)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(cat, modelApps)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.slots) != len(cat.VMIDs())+1 {
		t.Fatalf("fixture has %d VM slots for %d catalog VMs, want one more", len(m.slots), len(cat.VMIDs()))
	}
	return m
}

// ghost is a host outside every lab's catalog.
const ghost = "ghost"

// randomCase draws one solver input: a configuration that may oversubscribe
// hosts, run them downclocked, leave whole tiers dormant, place VMs on
// powered-off hosts and on a host outside the catalog with a frequency of
// its own, and activate the VM outside the catalog (all legal solver input),
// a workload with zero-rate applications, and one mutation of that
// configuration as a Delta.
func randomCase(rng *rand.Rand, m *Model) (cluster.Config, map[string]float64, cluster.Delta) {
	cat := m.Catalog()
	hosts := cat.HostNames()
	freqs := []float64{1, 1, 0.8, 0.6}
	cfg := cluster.NewConfig()
	for _, h := range hosts {
		cfg.SetHostOn(h, rng.Intn(5) > 0)
		cfg.SetHostFreq(h, freqs[rng.Intn(len(freqs))])
	}
	cfg.SetHostOn(ghost, true)
	cfg.SetHostFreq(ghost, freqs[rng.Intn(len(freqs))])
	anyHost := func() string {
		if rng.Intn(12) == 0 {
			return ghost
		}
		return hosts[rng.Intn(len(hosts))]
	}
	for _, k := range cat.Tiers() {
		if rng.Intn(8) == 0 {
			continue // dormant tier
		}
		for _, id := range cat.TierVMs(k) {
			if rng.Intn(4) > 0 {
				cfg.Place(id, anyHost(), float64(10+5*rng.Intn(15)))
			}
		}
	}
	for _, id := range m.slots[len(cat.VMIDs()):] {
		if rng.Intn(2) == 0 {
			cfg.Place(id, anyHost(), float64(10+5*rng.Intn(15)))
		}
	}
	load := make(map[string]float64)
	for _, name := range m.AppNames() {
		switch rng.Intn(5) {
		case 0: // absent from the workload
		case 1:
			load[name] = 0
		default:
			load[name] = 5 + 90*rng.Float64()
		}
	}

	var d cluster.Delta
	id := cat.VMIDs()[rng.Intn(len(cat.VMIDs()))]
	old, placed := cfg.PlacementOf(id)
	switch rng.Intn(4) {
	case 0: // placement change: resize, migrate, activate or deactivate
		d = cluster.Delta{VM: id, OldPlaced: placed, Old: old}
		if !placed || rng.Intn(4) > 0 {
			d.NewPlaced = true
			d.New = cluster.Placement{Host: hosts[rng.Intn(len(hosts))], CPUPct: float64(10 + 5*rng.Intn(15))}
			if placed && rng.Intn(2) == 0 {
				d.New.Host = old.Host
			}
		}
	case 1:
		h := hosts[rng.Intn(len(hosts))]
		d = cluster.Delta{Host: h, On: !cfg.HostOn(h)}
	case 2:
		d = cluster.Delta{FreqHost: hosts[rng.Intn(len(hosts))], NewFreq: freqs[rng.Intn(len(freqs))]}
	default: // the combined shape AddReplica stages: place a VM and boot its host
		h := hosts[rng.Intn(len(hosts))]
		d = cluster.Delta{VM: id, OldPlaced: placed, Old: old, NewPlaced: true,
			New: cluster.Placement{Host: h, CPUPct: 40}, Host: h, On: true}
	}
	return cfg, load, d
}

// sameSolve fails unless the steady-only projection carries exactly the
// bits of the rich one.
func sameSolve(t *testing.T, m *Model, what string, sol *Solution, res *Result) {
	t.Helper()
	for ai, name := range m.AppNames() {
		ar := res.Apps[name]
		if math.Float64bits(sol.MeanRTSec[ai]) != math.Float64bits(ar.MeanRTSec) || sol.Saturated[ai] != ar.Saturated {
			t.Fatalf("%s: app %s: steady-only (%v, %v) != rich (%v, %v)",
				what, name, sol.MeanRTSec[ai], sol.Saturated[ai], ar.MeanRTSec, ar.Saturated)
		}
	}
	for hi, h := range m.Catalog().HostNames() {
		if math.Float64bits(sol.HostCPUUtil[hi]) != math.Float64bits(res.Hosts[h].CPUUtil) {
			t.Fatalf("%s: host %s: steady-only util %v != rich %v", what, h, sol.HostCPUUtil[hi], res.Hosts[h].CPUUtil)
		}
	}
}

// inCatalog is cfg without what a cluster.View cannot hold: the placements
// on the host outside the catalog and of the VM outside it, and that host's
// own entries.
func inCatalog(m *Model, cfg cluster.Config) cluster.Config {
	out := cfg.Clone()
	for vi, id := range m.slots {
		if p, ok := out.PlacementOf(id); ok && (p.Host == ghost || vi >= len(m.Catalog().VMIDs())) {
			out.Unplace(id)
		}
	}
	out.SetHostOn(ghost, false)
	out.SetHostFreq(ghost, 1)
	return out
}

// sameSolution fails unless two steady-only projections carry the same bits.
func sameSolution(t *testing.T, what string, got, want *Solution) {
	t.Helper()
	floats := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	if !floats(got.MeanRTSec, want.MeanRTSec) || !slices.Equal(got.Saturated, want.Saturated) ||
		!slices.Equal(got.HostOn, want.HostOn) || !floats(got.HostFreq, want.HostFreq) ||
		!floats(got.HostCPUUtil, want.HostCPUUtil) {
		t.Fatalf("%s: view solve %+v, Solve %+v", what, *got, *want)
	}
}

// TestSolveMatchesEvaluate is the differential test of the solver's two
// projections, of its overlay and of its view load: over seeded random
// inputs of the 2-app lab, the 4-app lab and a two-zone lab, Solve agrees
// bit-for-bit with Evaluate on application response time, saturation and
// host utilization, Solve through a Delta agrees with Evaluate on the
// configuration the Delta builds, and SolveView of that configuration's
// view — without what the catalog cannot hold — agrees with Solve of it.
func TestSolveMatchesEvaluate(t *testing.T) {
	for _, lab := range []struct{ nApps, zones int }{{2, 1}, {4, 1}, {2, 2}} {
		m := labModel(t, lab.nApps, lab.zones)
		rng := rand.New(rand.NewSource(int64(42 + 10*lab.nApps + lab.zones)))
		var saturated, oversubscribed int
		var view cluster.View
		for i := 0; i < 300; i++ {
			cfg, load, d := randomCase(rng, m)
			what := fmt.Sprintf("%d apps, %d zones, case %d", lab.nApps, lab.zones, i)

			res, err := m.Evaluate(cfg, load, nil)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := m.Solve(cfg, nil, load)
			if err != nil {
				t.Fatal(err)
			}
			sameSolve(t, m, what, sol, res)
			for hi, h := range m.Catalog().HostNames() {
				if sol.HostOn[hi] != cfg.HostOn(h) || sol.HostFreq[hi] != cfg.HostFreq(h) {
					t.Fatalf("%s: host %s: power state or frequency misread", what, h)
				}
				spec, _ := m.Catalog().Host(h)
				if cfg.AllocatedCPU(h) > spec.UsableCPUPct {
					oversubscribed++
				}
			}
			for _, s := range sol.Saturated {
				if s {
					saturated++
				}
			}
			m.Release(sol)

			built := cfg.Clone()
			built.ApplyDelta(d)
			res, err = m.Evaluate(built, load, nil)
			if err != nil {
				t.Fatal(err)
			}
			sol, err = m.Solve(cfg, &d, load)
			if err != nil {
				t.Fatal(err)
			}
			sameSolve(t, m, what+" through overlay", sol, res)
			m.Release(sol)

			fit := inCatalog(m, built)
			if !view.Load(m.Catalog(), fit) {
				t.Fatalf("%s: %s does not fit the catalog", what, fit)
			}
			want, err := m.Solve(fit, nil, load)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.SolveView(&view, load)
			if err != nil {
				t.Fatal(err)
			}
			sameSolution(t, what+" from the view", got, want)
			m.Release(got)
			m.Release(want)
		}
		if saturated == 0 || oversubscribed == 0 {
			t.Errorf("%d apps, %d zones: generator drew %d saturated apps and %d oversubscribed hosts; want both",
				lab.nApps, lab.zones, saturated, oversubscribed)
		}
	}
}

// TestSolveUnknownAppInLoad mirrors Evaluate's input check.
func TestSolveUnknownAppInLoad(t *testing.T) {
	m := labModel(t, 2, 1)
	if _, err := m.Solve(cluster.NewConfig(), nil, map[string]float64{"ghost": 1}); err == nil {
		t.Error("unknown app accepted")
	}
}

// TestSolveAllocatesNothing pins the steady-only entries' reason to exist:
// neither Solve nor SolveView allocates.
func TestSolveAllocatesNothing(t *testing.T) {
	m := labModel(t, 4, 1)
	cfg, load, d := randomCase(rand.New(rand.NewSource(1)), m)
	n := testing.AllocsPerRun(100, func() {
		sol, err := m.Solve(cfg, &d, load)
		if err != nil {
			t.Fatal(err)
		}
		m.Release(sol)
	})
	if n != 0 && !raceEnabled {
		t.Errorf("Solve allocates %v times per call, want 0", n)
	}
	var view cluster.View
	if !view.Load(m.Catalog(), inCatalog(m, cfg)) {
		t.Fatal("fixture does not fit the catalog")
	}
	n = testing.AllocsPerRun(100, func() {
		sol, err := m.SolveView(&view, load)
		if err != nil {
			t.Fatal(err)
		}
		m.Release(sol)
	})
	if n != 0 && !raceEnabled {
		t.Errorf("SolveView allocates %v times per call, want 0", n)
	}
}
