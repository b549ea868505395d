package strategy

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/lqn"
	"github.com/mistralcloud/mistral/internal/utility"
)

// zonedLab builds a 2-app environment across two data centers.
func zonedLab(t *testing.T) *lab {
	t.Helper()
	names := []string{"rubis1", "rubis2"}
	apps := []*app.Spec{app.RUBiS("rubis1"), app.RUBiS("rubis2")}
	hosts := make([]cluster.HostSpec, 4)
	for i := range hosts {
		hosts[i] = cluster.DefaultHostSpec("h" + string(rune('0'+i)))
		if i < 2 {
			hosts[i].Zone = "east"
		} else {
			hosts[i].Zone = "west"
		}
	}
	cat, err := app.BuildCatalog(hosts, apps)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := app.DefaultConfig(cat, apps, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lqn.CalibrateDemands(cat, apps, cfg, map[string]float64{"rubis1": 50, "rubis2": 50}, "rubis1"); err != nil {
		t.Fatal(err)
	}
	model, err := lqn.NewModel(cat, apps)
	if err != nil {
		t.Fatal(err)
	}
	costMgr, err := cost.NewManager(cat, cost.PaperTable(), 8)
	if err != nil {
		t.Fatal(err)
	}
	util := utility.PaperParams(names)
	eval, err := core.NewEvaluator(cat, model, util, costMgr)
	if err != nil {
		t.Fatal(err)
	}
	return &lab{cat: cat, apps: apps, eval: eval, util: util, cfg: cfg, names: names}
}

func TestMistralMultiZoneHierarchy(t *testing.T) {
	l := zonedLab(t)
	m, err := NewMistral(l.eval, MistralConfig{
		HostGroups: [][]string{l.cat.HostsInZone("east"), l.cat.HostsInZone("west")},
		Search:     core.SearchOptions{MaxExpansions: 800, TimePerChild: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.l3 == nil {
		t.Fatal("multi-zone deployment did not create a 3rd-level controller")
	}
	res := l.run(t, m)
	checkResult(t, res)
	l3 := m.StatsL3()
	if l3.Invocations == 0 {
		t.Error("3rd level never invoked despite band-escaping shifts")
	}
}

func TestSingleZoneHasNoL3(t *testing.T) {
	l := newLab(t)
	m, err := NewMistral(l.eval, MistralConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.l3 != nil {
		t.Error("single-zone deployment created a 3rd-level controller")
	}
	if got := m.StatsL3(); got.Invocations != 0 {
		t.Error("phantom L3 stats")
	}
}

func TestWANMigrationCostsExceedLAN(t *testing.T) {
	tbl := cost.PaperTable()
	for _, tier := range []string{"db", "app", "web"} {
		for s := 100.0; s <= 800; s += 100 {
			wan, ok := tbl.Lookup(cost.Key{Kind: cluster.ActionWANMigrate, Tier: tier}, s)
			if !ok {
				t.Fatalf("no WAN entry for %s", tier)
			}
			lan, _ := tbl.Lookup(cost.Key{Kind: cluster.ActionMigrate, Tier: tier}, s)
			if wan.Duration <= lan.Duration {
				t.Errorf("%s@%v: WAN duration %v not above LAN %v", tier, s, wan.Duration, lan.Duration)
			}
			if wan.DeltaRTTargetSec <= lan.DeltaRTTargetSec {
				t.Errorf("%s@%v: WAN ΔRT not above LAN", tier, s)
			}
		}
	}
}
