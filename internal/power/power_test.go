package power

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/mistralcloud/mistral/internal/cluster"
)

func TestHostWattsEndpoints(t *testing.T) {
	spec := cluster.DefaultHostSpec("h")
	if got := HostWatts(spec, 0); math.Abs(got-spec.IdleWatts) > 1e-9 {
		t.Errorf("watts at 0%% = %v, want idle %v", got, spec.IdleWatts)
	}
	// At rho=1: 2*1 - 1^r = 1 regardless of r -> busy watts.
	if got := HostWatts(spec, 1); math.Abs(got-spec.BusyWatts) > 1e-9 {
		t.Errorf("watts at 100%% = %v, want busy %v", got, spec.BusyWatts)
	}
	// Clamping.
	if HostWatts(spec, -0.5) != HostWatts(spec, 0) || HostWatts(spec, 1.5) != HostWatts(spec, 1) {
		t.Error("utilization not clamped")
	}
}

func TestHostWattsMonotoneAndConcaveShape(t *testing.T) {
	spec := cluster.DefaultHostSpec("h")
	prev := -1.0
	for u := 0.0; u <= 1.0001; u += 0.01 {
		w := HostWatts(spec, u)
		if w < prev {
			t.Fatalf("power not monotone at util %v: %v < %v", u, w, prev)
		}
		prev = w
	}
	// The 2ρ−ρ^r curve rises faster than linear at low utilization (r>1).
	mid := HostWatts(spec, 0.5)
	linear := spec.IdleWatts + (spec.BusyWatts-spec.IdleWatts)*0.5
	if mid <= linear {
		t.Errorf("model at 50%% = %v, want above linear %v", mid, linear)
	}
}

func TestHostWattsDefaultExponent(t *testing.T) {
	spec := cluster.DefaultHostSpec("h")
	spec.PowerExponent = 0 // invalid -> treated as linear-compatible r=1
	got := HostWatts(spec, 0.5)
	want := spec.IdleWatts + (spec.BusyWatts-spec.IdleWatts)*(2*0.5-0.5)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("watts = %v, want %v", got, want)
	}
}

func TestSystemWattsSumsOnlyActiveHosts(t *testing.T) {
	cat, err := cluster.NewCatalog(cluster.CatalogConfig{
		Hosts: []cluster.HostSpec{cluster.DefaultHostSpec("h0"), cluster.DefaultHostSpec("h1"), cluster.DefaultHostSpec("h2")},
		VMs:   []cluster.VMSpec{{ID: "v", App: "a", Tier: "t", MemoryMB: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.SetHostOn("h1", true)
	util := map[string]float64{"h0": 0.5, "h1": 0.0, "h2": 0.9}
	got := SystemWatts(cat, cfg, util)
	spec, _ := cat.Host("h0")
	want := HostWatts(spec, 0.5) + HostWatts(spec, 0)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("SystemWatts = %v, want %v (h2 is off)", got, want)
	}
	if got := SystemWatts(cat, cluster.NewConfig(), util); got != 0 {
		t.Errorf("SystemWatts with all hosts off = %v, want 0", got)
	}
	// The dense form folds the same hosts in the same order.
	cfg.SetHostFreq("h1", 0.6)
	dense := SystemWattsDense(cat.HostSpecs(), []bool{true, true, false}, []float64{0.5, 0, 0.9}, []float64{1, 0.6, 1})
	if want := SystemWatts(cat, cfg, util); dense != want {
		t.Errorf("SystemWattsDense = %v, SystemWatts = %v", dense, want)
	}
}

func TestHostWattsBoundedProperty(t *testing.T) {
	spec := cluster.DefaultHostSpec("h")
	prop := func(u float64, rRaw uint8) bool {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return true
		}
		s := spec
		s.PowerExponent = 0.5 + float64(rRaw)/255*7.5
		w := HostWatts(s, u)
		return w >= s.IdleWatts-1e-9 && w <= s.BusyWatts+ // 2ρ−ρ^r peaks above 1 inside (0,1) for r>1
			(s.BusyWatts-s.IdleWatts)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHostWattsAtFreqEdges(t *testing.T) {
	spec := cluster.DefaultHostSpec("h")
	// Nominal and out-of-range frequencies reduce to the base model.
	for _, f := range []float64{1, 1.2, 0, -0.5} {
		if got, want := HostWattsAtFreq(spec, 0.5, f), HostWatts(spec, 0.5); got != want {
			t.Errorf("freq %v: watts = %v, want base %v", f, got, want)
		}
	}
	// Utilization clamping at reduced frequency.
	if HostWattsAtFreq(spec, -1, 0.6) != HostWattsAtFreq(spec, 0, 0.6) {
		t.Error("negative utilization not clamped")
	}
	if HostWattsAtFreq(spec, 2, 0.6) != HostWattsAtFreq(spec, 1, 0.6) {
		t.Error("oversized utilization not clamped")
	}
	// Lower frequency monotonically lowers power at equal utilization.
	if HostWattsAtFreq(spec, 0.7, 0.6) >= HostWattsAtFreq(spec, 0.7, 0.8) {
		t.Error("power not decreasing with frequency")
	}
	// Invalid exponent falls back as in the base model.
	bad := spec
	bad.PowerExponent = -1
	if got := HostWattsAtFreq(bad, 0.5, 0.6); got <= 0 {
		t.Errorf("invalid exponent: watts = %v", got)
	}
}
