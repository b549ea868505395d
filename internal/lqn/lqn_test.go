package lqn

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

// singleTierApp builds a one-tier, one-transaction app with the given demand
// and no Dom-0 overhead, for closed-form comparisons.
func singleTierApp(name string, demandMS float64) *app.Spec {
	return &app.Spec{
		Name:     name,
		Tiers:    []app.TierSpec{{Name: "t", MaxReplicas: 2, VMMemoryMB: 200}},
		Txns:     []app.TxnSpec{{Name: "only", Weight: 1, DemandMS: map[string]float64{"t": demandMS}}},
		TargetRT: time.Second,
	}
}

func twoHostCatalog(t *testing.T, apps []*app.Spec) *cluster.Catalog {
	t.Helper()
	cat, err := app.BuildCatalog([]cluster.HostSpec{
		cluster.DefaultHostSpec("h0"), cluster.DefaultHostSpec("h1"),
	}, apps)
	if err != nil {
		t.Fatalf("BuildCatalog: %v", err)
	}
	return cat
}

func TestEvaluateMatchesMG1PSClosedForm(t *testing.T) {
	a := singleTierApp("a", 8) // 8 ms demand
	cat := twoHostCatalog(t, []*app.Spec{a})
	m, err := NewModel(cat, []*app.Spec{a})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.Place("a-t-0", "h0", 40)

	const lambda = 30.0
	res, err := m.Evaluate(cfg, map[string]float64{"a": lambda}, nil)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// M/G/1-PS at rate f=0.4: S = D/f = 20 ms, rho = lambda*D/f = 0.6,
	// RT = S/(1-rho) = 50 ms.
	want := 0.020 / (1 - 0.6)
	got := res.MeanRTSec("a")
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("MeanRT = %v, want %v", got, want)
	}
	ar := res.Apps["a"]
	if ar.Saturated {
		t.Error("unexpected saturation")
	}
	if got := ar.TierUtil["t"]; math.Abs(got-0.6) > 1e-9 {
		t.Errorf("TierUtil = %v, want 0.6", got)
	}
	if got := res.VMUtil["a-t-0"]; math.Abs(got-0.6) > 1e-9 {
		t.Errorf("VMUtil = %v, want 0.6", got)
	}
	// Host CPU: absolute demand lambda*D = 0.24 (no dom0) on top of the
	// housekeeping floor.
	if got, want := res.Hosts["h0"].CPUUtil, 0.24+baseHostUtil; math.Abs(got-want) > 1e-9 {
		t.Errorf("host util = %v, want %v", got, want)
	}
	if got := res.Hosts["h1"].CPUUtil; got != 0 {
		t.Errorf("off host util = %v, want 0", got)
	}
}

func TestEvaluateTwoReplicasHalveLoad(t *testing.T) {
	a := singleTierApp("a", 8)
	cat := twoHostCatalog(t, []*app.Spec{a})
	m, _ := NewModel(cat, []*app.Spec{a})
	one := cluster.NewConfig()
	one.SetHostOn("h0", true)
	one.Place("a-t-0", "h0", 40)
	two := one.Clone()
	two.SetHostOn("h1", true)
	two.Place("a-t-1", "h1", 40)

	load := map[string]float64{"a": 40}
	r1, err := m.Evaluate(one, load, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Evaluate(two, load, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MeanRTSec("a") >= r1.MeanRTSec("a") {
		t.Errorf("adding a replica did not reduce RT: %v -> %v", r1.MeanRTSec("a"), r2.MeanRTSec("a"))
	}
	// Per-replica utilization halves with equal allocations.
	if got, want := r2.Apps["a"].TierUtil["t"], r1.Apps["a"].TierUtil["t"]/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("two-replica util = %v, want %v", got, want)
	}
}

func TestEvaluateMoreCPUReducesRT(t *testing.T) {
	a := app.RUBiS("a")
	cat := twoHostCatalog(t, []*app.Spec{a})
	m, _ := NewModel(cat, []*app.Spec{a})
	lo, err := app.DefaultConfig(cat, []*app.Spec{a}, 2, 25)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := app.DefaultConfig(cat, []*app.Spec{a}, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]float64{"a": 40}
	rLo, err := m.Evaluate(lo, load, nil)
	if err != nil {
		t.Fatal(err)
	}
	rHi, err := m.Evaluate(hi, load, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rHi.MeanRTSec("a") >= rLo.MeanRTSec("a") {
		t.Errorf("more CPU did not reduce RT: %v -> %v", rLo.MeanRTSec("a"), rHi.MeanRTSec("a"))
	}
}

func TestEvaluateSaturationIsFlaggedAndFinite(t *testing.T) {
	a := singleTierApp("a", 8)
	cat := twoHostCatalog(t, []*app.Spec{a})
	m, _ := NewModel(cat, []*app.Spec{a})
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.Place("a-t-0", "h0", 40)
	// Capacity is f/D = 50 req/s; drive at 80.
	res, err := m.Evaluate(cfg, map[string]float64{"a": 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ar := res.Apps["a"]
	if !ar.Saturated {
		t.Error("saturation not flagged")
	}
	if math.IsInf(ar.MeanRTSec, 0) || math.IsNaN(ar.MeanRTSec) || ar.MeanRTSec <= 0 {
		t.Errorf("saturated RT = %v, want finite positive", ar.MeanRTSec)
	}
	// Host CPU is capped at the allocation despite excess demand.
	if got := res.Hosts["h0"].CPUUtil; got > 0.45 {
		t.Errorf("host util = %v, want capped near allocation 0.4", got)
	}
}

func TestEvaluateMissingTierSaturates(t *testing.T) {
	a := app.RUBiS("a")
	cat := twoHostCatalog(t, []*app.Spec{a})
	m, _ := NewModel(cat, []*app.Spec{a})
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.Place("a-web-0", "h0", 40) // no app/db tier
	res, err := m.Evaluate(cfg, map[string]float64{"a": 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Apps["a"].Saturated {
		t.Error("app with unserved tiers not flagged saturated")
	}
	if res.MeanRTSec("a") < 1 {
		t.Errorf("unserved app RT = %v, want heavily penalized", res.MeanRTSec("a"))
	}
}

func TestEvaluateDom0BackgroundRaisesRTAndUtil(t *testing.T) {
	a := app.RUBiS("a")
	cat := twoHostCatalog(t, []*app.Spec{a})
	m, _ := NewModel(cat, []*app.Spec{a})
	cfg, err := app.DefaultConfig(cat, []*app.Spec{a}, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]float64{"a": 30}
	base, err := m.Evaluate(cfg, load, nil)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := m.Evaluate(cfg, load, map[string]float64{"h0": 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if busy.MeanRTSec("a") <= base.MeanRTSec("a") {
		t.Errorf("dom0 background did not raise RT: %v -> %v", base.MeanRTSec("a"), busy.MeanRTSec("a"))
	}
	if busy.Hosts["h0"].CPUUtil <= base.Hosts["h0"].CPUUtil {
		t.Errorf("dom0 background did not raise host util: %v -> %v", base.Hosts["h0"].CPUUtil, busy.Hosts["h0"].CPUUtil)
	}
	if busy.Hosts["h0"].Dom0Util <= base.Hosts["h0"].Dom0Util {
		t.Error("dom0 util did not rise")
	}
}

func TestEvaluateUnknownAppInLoad(t *testing.T) {
	a := app.RUBiS("a")
	cat := twoHostCatalog(t, []*app.Spec{a})
	m, _ := NewModel(cat, []*app.Spec{a})
	if _, err := m.Evaluate(cluster.NewConfig(), map[string]float64{"ghost": 1}, nil); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestEvaluateZeroLoad(t *testing.T) {
	a := app.RUBiS("a")
	cat := twoHostCatalog(t, []*app.Spec{a})
	m, _ := NewModel(cat, []*app.Spec{a})
	cfg, err := app.DefaultConfig(cat, []*app.Spec{a}, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Evaluate(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// At zero load the response time is the unloaded floor: the CPU-free
	// latency with no queueing contribution.
	floor := a.MeanLatencyMS() / 1000
	if got := res.MeanRTSec("a"); math.Abs(got-floor) > 1e-9 {
		t.Errorf("RT at zero load = %v, want latency floor %v", got, floor)
	}
	// Powered-on hosts still draw their base utilization.
	if res.Hosts["h0"].CPUUtil <= 0 {
		t.Error("idle powered-on host should report base utilization")
	}
}

func TestNewModelRejectsDuplicatesAndInvalid(t *testing.T) {
	a := app.RUBiS("a")
	cat := twoHostCatalog(t, []*app.Spec{a})
	if _, err := NewModel(cat, []*app.Spec{a, a}); err == nil {
		t.Error("duplicate app accepted")
	}
	bad := app.RUBiS("b")
	bad.Txns = nil
	if _, err := NewModel(cat, []*app.Spec{bad}); err == nil {
		t.Error("invalid app accepted")
	}
}

func TestRTMonotoneInLoadProperty(t *testing.T) {
	a := app.RUBiS("a")
	cat := twoHostCatalog(t, []*app.Spec{a})
	m, _ := NewModel(cat, []*app.Spec{a})
	cfg, err := app.DefaultConfig(cat, []*app.Spec{a}, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	rt := func(lambda float64) float64 {
		res, err := m.Evaluate(cfg, map[string]float64{"a": lambda}, nil)
		if err != nil {
			t.Fatalf("Evaluate: %v", err)
		}
		return res.MeanRTSec("a")
	}
	prop := func(x, y uint8) bool {
		l1 := float64(x) / 255 * 100
		l2 := float64(y) / 255 * 100
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		return rt(l1) <= rt(l2)+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCalibrateDemandsHitsTarget(t *testing.T) {
	apps := []*app.Spec{app.RUBiS("rubis1"), app.RUBiS("rubis2")}
	cat, err := app.BuildCatalog([]cluster.HostSpec{
		cluster.DefaultHostSpec("h0"), cluster.DefaultHostSpec("h1"),
		cluster.DefaultHostSpec("h2"), cluster.DefaultHostSpec("h3"),
	}, apps)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := app.DefaultConfig(cat, apps, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]float64{"rubis1": 50, "rubis2": 50}
	k, err := CalibrateDemands(cat, apps, cfg, load, "rubis1")
	if err != nil {
		t.Fatalf("CalibrateDemands: %v", err)
	}
	if k <= 0 {
		t.Fatalf("scale = %v", k)
	}
	m, _ := NewModel(cat, apps)
	res, err := m.Evaluate(cfg, load, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.MeanRTSec("rubis1")
	if math.Abs(got-0.4) > 0.004 {
		t.Errorf("calibrated RT = %v, want 0.400±0.004", got)
	}
	// The calibrated system must still have headroom at max replication for
	// the paper's top rate of 100 req/s.
	maxCfg := cluster.NewConfig()
	for _, h := range []string{"h0", "h1", "h2", "h3"} {
		maxCfg.SetHostOn(h, true)
	}
	maxCfg.Place("rubis1-web-0", "h0", 80)
	maxCfg.Place("rubis1-app-0", "h1", 80)
	maxCfg.Place("rubis1-app-1", "h2", 80)
	maxCfg.Place("rubis1-db-0", "h3", 80)
	maxCfg.Place("rubis1-db-1", "h0", 0) // placeholder replaced below
	maxCfg.Unplace("rubis1-db-1")
	maxCfg.Place("rubis1-db-1", "h1", 0)
	maxCfg.Unplace("rubis1-db-1")
	// Simplest: two hosts carry db replicas at 40 each alongside web/app.
	maxCfg.Place("rubis1-db-1", "h2", 0)
	maxCfg.Unplace("rubis1-db-1")
	res2, err := m.Evaluate(maxCfg, map[string]float64{"rubis1": 100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Apps["rubis1"].Saturated {
		t.Errorf("calibrated app saturated at 100 req/s with near-max allocation; RT=%v", res2.MeanRTSec("rubis1"))
	}
	if res2.MeanRTSec("rubis1") > 0.4 {
		t.Errorf("max-allocation RT at 100 req/s = %v, want under target", res2.MeanRTSec("rubis1"))
	}
}

func TestCalibrateDemandsUnknownRef(t *testing.T) {
	apps := []*app.Spec{app.RUBiS("a")}
	cat := twoHostCatalog(t, apps)
	cfg, err := app.DefaultConfig(cat, apps, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CalibrateDemands(cat, apps, cfg, map[string]float64{"a": 50}, "ghost"); err == nil {
		t.Error("unknown reference app accepted")
	}
}
