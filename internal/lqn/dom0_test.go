package lqn

import (
	"testing"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

// TestDom0SaturationPenalizesAndFlags drives the Dom-0 station past its
// soft cap via heavy per-visit virtualization overhead: the model must
// flag saturation and keep response times finite.
func TestDom0SaturationPenalizesAndFlags(t *testing.T) {
	a := app.RUBiS("a")
	a.Dom0OverheadMS = 12 // pathological hypervisor overhead per visit
	cat, err := app.BuildCatalog([]cluster.HostSpec{cluster.DefaultHostSpec("h0")}, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.Place("a-web-0", "h0", 20)
	cfg.Place("a-app-0", "h0", 20)
	cfg.Place("a-db-0", "h0", 20)

	m, err := NewModel(cat, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	// Dom-0 demand: 3 visits × 12 ms × 20 req/s = 0.72 CPU against a 0.2
	// share — deeply saturated.
	res, err := m.Evaluate(cfg, map[string]float64{"a": 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ar := res.Apps["a"]
	if !ar.Saturated {
		t.Error("dom0 saturation not flagged")
	}
	if ar.MeanRTSec <= 0 || ar.MeanRTSec > 1000 {
		t.Errorf("RT under dom0 saturation = %v, want finite positive", ar.MeanRTSec)
	}
	if res.Hosts["h0"].Dom0Util <= 1 {
		t.Errorf("dom0 util = %v, want > 1", res.Hosts["h0"].Dom0Util)
	}
	// Host power utilization remains clamped to [0,1].
	if u := res.Hosts["h0"].CPUUtil; u < 0 || u > 1 {
		t.Errorf("host util = %v out of range", u)
	}
}

// TestDom0SharedAcrossApps verifies that co-located applications contend
// for the same Dom-0 station: adding a second app's traffic slows the
// first app even though their VMs are separate.
func TestDom0SharedAcrossApps(t *testing.T) {
	a := app.RUBiS("a")
	b := app.RUBiS("b")
	a.Dom0OverheadMS, b.Dom0OverheadMS = 2, 2
	cat, err := app.BuildCatalog([]cluster.HostSpec{cluster.DefaultHostSpec("h0"), cluster.DefaultHostSpec("h1")}, []*app.Spec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.SetHostOn("h1", true)
	// Both apps' web tiers share h0; the rest live on h1.
	cfg.Place("a-web-0", "h0", 20)
	cfg.Place("b-web-0", "h0", 20)
	cfg.Place("a-app-0", "h1", 20)
	cfg.Place("a-db-0", "h1", 20)
	cfg.Place("b-app-0", "h1", 20)
	cfg.Place("b-db-0", "h1", 20)

	m, err := NewModel(cat, []*app.Spec{a, b})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := m.Evaluate(cfg, map[string]float64{"a": 15}, nil)
	if err != nil {
		t.Fatal(err)
	}
	together, err := m.Evaluate(cfg, map[string]float64{"a": 15, "b": 15}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if together.MeanRTSec("a") <= alone.MeanRTSec("a") {
		t.Errorf("co-located app traffic did not slow app a via dom0: %v -> %v",
			alone.MeanRTSec("a"), together.MeanRTSec("a"))
	}
}
