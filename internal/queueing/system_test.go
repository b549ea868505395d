package queueing

import (
	"math"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

func testSetup(t *testing.T, apps []*app.Spec) (*cluster.Catalog, cluster.Config) {
	t.Helper()
	cat, err := app.BuildCatalog([]cluster.HostSpec{
		cluster.DefaultHostSpec("h0"), cluster.DefaultHostSpec("h1"),
	}, apps)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := app.DefaultConfig(cat, apps, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	return cat, cfg
}

// oneTier returns an app with a single tier, one transaction, no Dom-0
// overhead, for closed-form comparisons.
func oneTier(name string, demandMS float64) *app.Spec {
	return &app.Spec{
		Name:     name,
		Tiers:    []app.TierSpec{{Name: "t", MaxReplicas: 2, VMMemoryMB: 200}},
		Txns:     []app.TxnSpec{{Name: "x", Weight: 1, DemandMS: map[string]float64{"t": demandMS}}},
		TargetRT: time.Second,
	}
}

func TestSystemMatchesPSTheory(t *testing.T) {
	a := oneTier("a", 8)
	cat, err := app.BuildCatalog([]cluster.HostSpec{cluster.DefaultHostSpec("h0")}, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.Place("a-t-0", "h0", 40)
	sys, err := New(cat, []*app.Spec{a}, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	const lambda = 30.0
	if err := sys.SetRate("a", lambda); err != nil {
		t.Fatal(err)
	}
	// Warm up, then measure a long window.
	if err := sys.Run(200 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys.ResetWindow()
	if err := sys.Run(4200 * time.Second); err != nil {
		t.Fatal(err)
	}
	w := sys.Snapshot()
	// Theory: S = 8ms/0.4 = 20ms, rho = 0.6, RT = 50ms.
	got := w.Apps["a"].MeanRTSec
	if math.Abs(got-0.050)/0.050 > 0.08 {
		t.Errorf("mean RT = %v, want 0.050 ±8%%", got)
	}
	// Host util ~ lambda*D = 0.24 (no dom0 overhead in this app).
	if u := w.HostUtil["h0"]; math.Abs(u-0.24) > 0.02 {
		t.Errorf("host util = %v, want ~0.24", u)
	}
	if w.Apps["a"].Completed < 100000 {
		t.Errorf("completed = %d, want ~126k", w.Apps["a"].Completed)
	}
	if w.Apps["a"].P95RTSec <= got {
		t.Error("p95 should exceed mean")
	}
}

func TestSystemDeterministicAcrossRuns(t *testing.T) {
	mk := func() Window {
		a := app.RUBiS("a")
		cat, cfg := testSetup(t, []*app.Spec{a})
		sys, err := New(cat, []*app.Spec{a}, cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SetRate("a", 40); err != nil {
			t.Fatal(err)
		}
		if err := sys.Run(300 * time.Second); err != nil {
			t.Fatal(err)
		}
		return sys.Snapshot()
	}
	w1, w2 := mk(), mk()
	if w1.Apps["a"].MeanRTSec != w2.Apps["a"].MeanRTSec || w1.Apps["a"].Completed != w2.Apps["a"].Completed {
		t.Errorf("same seed produced different results: %+v vs %+v", w1.Apps["a"], w2.Apps["a"])
	}
}

func TestSystemDom0BackgroundDegradesRT(t *testing.T) {
	a := app.RUBiS("a")
	a.ScaleDemands(2.0) // moderate load
	cat, cfg := testSetup(t, []*app.Spec{a})
	run := func(bg float64) float64 {
		sys, err := New(cat, []*app.Spec{a}, cfg, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SetRate("a", 30); err != nil {
			t.Fatal(err)
		}
		if bg > 0 {
			if err := sys.SetDom0Background("h0", bg); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Run(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		sys.ResetWindow()
		if err := sys.Run(600 * time.Second); err != nil {
			t.Fatal(err)
		}
		return sys.Snapshot().Apps["a"].MeanRTSec
	}
	base, busy := run(0), run(0.85)
	if busy <= base {
		t.Errorf("dom0 background did not degrade RT: %v -> %v", base, busy)
	}
}

func TestSystemDom0BackgroundCountsAsUtil(t *testing.T) {
	a := oneTier("a", 8)
	cat, err := app.BuildCatalog([]cluster.HostSpec{cluster.DefaultHostSpec("h0")}, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.Place("a-t-0", "h0", 40)
	sys, err := New(cat, []*app.Spec{a}, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetDom0Background("h0", 0.5); err != nil {
		t.Fatal(err)
	}
	sys.ResetWindow()
	if err := sys.Run(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	// No traffic: util is exactly the background 0.5 * 0.2 share = 0.1.
	if u := sys.Snapshot().HostUtil["h0"]; math.Abs(u-0.1) > 1e-9 {
		t.Errorf("idle util with background = %v, want 0.1", u)
	}
	if err := sys.SetDom0Background("ghost", 0.5); err == nil {
		t.Error("unknown host accepted")
	}
}

func TestSystemPauseVM(t *testing.T) {
	a := oneTier("a", 8)
	cat, err := app.BuildCatalog([]cluster.HostSpec{cluster.DefaultHostSpec("h0")}, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.Place("a-t-0", "h0", 40)
	sys, err := New(cat, []*app.Spec{a}, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRate("a", 20); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sys.PauseVM("a-t-0", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := sys.vmStations["a-t-0"]
	if st.Rate() != 0 {
		t.Errorf("rate during pause = %v, want 0", st.Rate())
	}
	if err := sys.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st.Rate() != 0.4 {
		t.Errorf("rate after pause = %v, want 0.4 restored", st.Rate())
	}
	if err := sys.PauseVM("ghost", time.Second); err == nil {
		t.Error("unknown VM accepted")
	}
}

func TestSystemSetVMRateAndMove(t *testing.T) {
	a := app.RUBiS("a")
	cat, cfg := testSetup(t, []*app.Spec{a})
	sys, err := New(cat, []*app.Spec{a}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetVMRate("a-web-0", 60); err != nil {
		t.Fatal(err)
	}
	if got := sys.vmStations["a-web-0"].Rate(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("rate = %v, want 0.6", got)
	}
	if err := sys.SetVMRate("ghost", 10); err == nil {
		t.Error("unknown VM accepted")
	}
	from := sys.vmHost["a-web-0"]
	dst := "h1"
	if from == "h1" {
		dst = "h0"
	}
	if err := sys.MoveVM("a-web-0", dst); err != nil {
		t.Fatal(err)
	}
	if sys.vmHost["a-web-0"] != dst {
		t.Error("MoveVM did not reassign host")
	}
	if err := sys.MoveVM("ghost", "h0"); err == nil {
		t.Error("unknown VM accepted for move")
	}
	if err := sys.MoveVM("a-web-0", "ghost"); err == nil {
		t.Error("unknown destination accepted")
	}
}

func TestSystemReplicaWeighting(t *testing.T) {
	a := oneTier("a", 4)
	cat, err := app.BuildCatalog([]cluster.HostSpec{
		cluster.DefaultHostSpec("h0"), cluster.DefaultHostSpec("h1"),
	}, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.SetHostOn("h1", true)
	cfg.Place("a-t-0", "h0", 60)
	cfg.Place("a-t-1", "h1", 20)
	sys, err := New(cat, []*app.Spec{a}, cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRate("a", 50); err != nil {
		t.Fatal(err)
	}
	sys.ResetWindow()
	if err := sys.Run(2000 * time.Second); err != nil {
		t.Fatal(err)
	}
	w := sys.Snapshot()
	// Load split 3:1 -> absolute host CPU use ratio also 3:1.
	u0, u1 := w.HostUtil["h0"], w.HostUtil["h1"]
	if u0 < 2*u1 {
		t.Errorf("utilization ratio h0/h1 = %v/%v, want ~3:1", u0, u1)
	}
}

func TestSystemValidation(t *testing.T) {
	a := app.RUBiS("a")
	cat, cfg := testSetup(t, []*app.Spec{a})

	if _, err := New(cat, []*app.Spec{a}, cfg, 0); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
	bad := app.RUBiS("bad")
	bad.Txns = nil
	if _, err := New(cat, []*app.Spec{bad}, cfg, 0); err == nil {
		t.Error("invalid app accepted")
	}
	// VM on an inactive host.
	broken := cfg.Clone()
	broken.SetHostOn("h1", false)
	if _, err := New(cat, []*app.Spec{a}, broken, 0); err == nil {
		t.Error("VM on off host accepted")
	}
	sys, err := New(cat, []*app.Spec{a}, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRate("ghost", 5); err == nil {
		t.Error("unknown app rate accepted")
	}
}

func TestSystemZeroRateStopsArrivals(t *testing.T) {
	a := app.RUBiS("a")
	cat, cfg := testSetup(t, []*app.Spec{a})
	sys, err := New(cat, []*app.Spec{a}, cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRate("a", 50); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRate("a", 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys.ResetWindow()
	if err := sys.Run(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := sys.Snapshot().Apps["a"].Completed; got != 0 {
		t.Errorf("completions after rate 0 = %d, want 0", got)
	}
}
