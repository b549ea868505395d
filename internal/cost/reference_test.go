package cost

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

// referencePredictInto is PredictInto as it was before PredictView: the key
// resolved by name per call, the co-location scan walking every cataloged VM
// through the configuration's placement map.
func referencePredictInto(m *Manager, cfg cluster.Config, a cluster.Action, rates map[string]float64, deltaRT map[string]float64) (time.Duration, float64) {
	clear(deltaRT)
	key := KeyFor(m.cat, a)
	targetApp := ""
	if vm, ok := m.cat.VM(a.VM); ok {
		targetApp = vm.App
	}
	sessions := 0.0
	if targetApp != "" {
		sessions = rates[targetApp] * m.sessionsPerReqSec
	}
	entry, ok := m.table.Lookup(key, sessions)
	if !ok {
		return 0, 0
	}
	if targetApp == "" {
		return entry.Duration, entry.DeltaWatts
	}
	deltaRT[targetApp] = entry.DeltaRTTargetSec
	if entry.DeltaRTColocatedSec > 0 {
		h1, h2 := a.Host, a.FromHost
		h3 := ""
		if p, ok := cfg.PlacementOf(a.VM); ok {
			h3 = p.Host
		}
		for _, id := range m.cat.VMIDs() {
			p, ok := cfg.PlacementOf(id)
			if !ok || (p.Host != h1 && p.Host != h2 && p.Host != h3) || p.Host == "" {
				continue
			}
			vm, ok := m.cat.VM(id)
			if !ok || vm.App == targetApp {
				continue
			}
			deltaRT[vm.App] = entry.DeltaRTColocatedSec
		}
	}
	return entry.Duration, entry.DeltaWatts
}

// TestPredictMatchesReference holds the array-reading prediction to the
// map-scanning one it replaced, on random configurations of a two-zone
// 3-application catalog (oversubscribed and powered-off hosts included):
// every feasible action, filled and as proposed, plus actions naming VMs and
// hosts outside the catalog, must get the same duration, power delta and
// per-application delta map — keys and values.
func TestPredictMatchesReference(t *testing.T) {
	apps := []*app.Spec{app.RUBiS("rubis1"), app.RUBiS("rubis2"), app.RUBiS("rubis3")}
	var hosts []cluster.HostSpec
	for i, name := range []string{"h0", "h1", "h2", "h3", "h4", "h5"} {
		h := cluster.DefaultHostSpec(name)
		h.Zone = []string{"dc0", "dc1"}[i/3]
		h.DVFSLevels = []float64{0.6, 0.8}
		hosts = append(hosts, h)
	}
	cat, err := app.BuildCatalog(hosts, apps)
	if err != nil {
		t.Fatal(err)
	}
	tbl := PaperTable()
	// A family measured without tiers, so the tierless fallback is used.
	tbl.entries[Key{Kind: cluster.ActionRemoveReplica}] = tbl.entries[Key{Kind: cluster.ActionRemoveReplica, Tier: "db"}]
	delete(tbl.entries, Key{Kind: cluster.ActionRemoveReplica, Tier: "app"})
	m, err := NewManager(cat, tbl, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 17))
	names, vms := cat.HostNames(), cat.VMIDs()
	got, want := map[string]float64{}, map[string]float64{}
	checked, colocated := 0, 0
	for trial := 0; trial < 80; trial++ {
		cfg := cluster.NewConfig()
		for _, h := range names {
			cfg.SetHostOn(h, rng.IntN(5) > 0)
		}
		for _, id := range vms {
			if rng.IntN(4) > 0 {
				cfg.Place(id, names[rng.IntN(len(names))], float64(10*(1+rng.IntN(8))))
			}
		}
		rates := map[string]float64{"rubis1": 100 * rng.Float64(), "rubis2": 100 * rng.Float64()} // rubis3 absent
		actions := []cluster.Action{
			{Kind: cluster.ActionMigrate, VM: "ghost", Host: "h0"},
			{Kind: cluster.ActionMigrate, VM: vms[0], Host: "ghost", FromHost: "h1"},
			{Kind: cluster.ActionStartHost, Host: "ghost"},
			{Kind: cluster.ActionKind(77), VM: vms[1], Host: "h2"},
		}
		for _, a := range cluster.Enumerate(cat, cfg, cluster.ActionSpace{}) {
			filled, _, err := cluster.Stage(cat, cfg, a)
			if err != nil {
				t.Fatal(err)
			}
			actions = append(actions, a, filled)
		}
		for _, a := range actions {
			gd, gw := m.PredictInto(cfg, a, rates, got)
			wd, ww := referencePredictInto(m, cfg, a, rates, want)
			if gd != wd || gw != ww || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %+v:\n got %v %v %v\nwant %v %v %v", trial, a, gd, gw, got, wd, ww, want)
			}
			checked++
			if len(want) > 1 {
				colocated++
			}
		}
	}
	if checked < 2000 || colocated < 200 {
		t.Fatalf("fixture too weak: %d predictions, %d with co-located applications", checked, colocated)
	}
}
