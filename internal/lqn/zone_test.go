package lqn

import (
	"math"
	"testing"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

func TestCrossZoneLatencyPenalty(t *testing.T) {
	a := app.RUBiS("a")
	mk := func(name, zone string) cluster.HostSpec {
		h := cluster.DefaultHostSpec(name)
		h.Zone = zone
		return h
	}
	cat, err := app.BuildCatalog([]cluster.HostSpec{
		mk("east0", "east"), mk("east1", "east"), mk("west0", "west"),
	}, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(cat, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]float64{"a": 20}

	// All tiers in one zone: no penalty.
	local := cluster.NewConfig()
	local.SetHostOn("east0", true)
	local.SetHostOn("east1", true)
	local.Place("a-web-0", "east0", 40)
	local.Place("a-app-0", "east0", 40)
	local.Place("a-db-0", "east1", 40)
	rLocal, err := m.Evaluate(local, load, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The db tier moved across the WAN: both app->db hops cross zones.
	split := local.Clone()
	split.SetHostOn("west0", true)
	split.Unplace("a-db-0")
	split.Place("a-db-0", "west0", 40)
	rSplit, err := m.Evaluate(split, load, nil)
	if err != nil {
		t.Fatal(err)
	}

	gap := rSplit.MeanRTSec("a") - rLocal.MeanRTSec("a")
	// One crossing hop (app->db) at crossZoneLatencyMS.
	if math.Abs(gap-0.040) > 0.010 {
		t.Errorf("cross-zone RT gap = %vs, want ≈0.040s", gap)
	}

}
