package testbed

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// TestAnalyticWindowAllocationCeiling bounds what the analytic testbed
// allocates for one control window with one action in it, on the 2-app lab:
// an Execute of a one-step CPU plan and a MeasureWindow whose window the
// phase splits in two. Each segment is solved dense and priced over the
// solve's per-host slices, and the step's configuration shares every map
// but the placements with the one before, so what is left is the window's
// two maps, the step report, the cost prediction and that placements map:
// 12 allocations.
func TestAnalyticWindowAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under the race detector")
	}
	cat, apps, cfg := setup(t, 4, "rubis1", "rubis2")
	rates := map[string]float64{"rubis1": 40, "rubis2": 40}
	tb, err := New(cat, apps, cfg, rates, nil, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const vm = cluster.VMID("rubis1-web-0")
	step := 0
	perWindow := testing.AllocsPerRun(50, func() {
		kind := cluster.ActionIncreaseCPU
		if step%2 == 1 {
			kind = cluster.ActionDecreaseCPU
		}
		step++
		if _, err := tb.Execute([]cluster.Action{{Kind: kind, VM: vm, DeltaCPUPct: cat.CPUStepPct}}); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.MeasureWindow(tb.Now() + 2*time.Minute); err != nil {
			t.Fatal(err)
		}
	})
	if tb.Busy() || step < 2 {
		t.Fatalf("fixture: %d windows, busy %v", step, tb.Busy())
	}
	const ceiling = 20
	if perWindow > ceiling {
		t.Errorf("an analytic window with one CPU step allocates %.0f times, ceiling %d", perWindow, ceiling)
	} else {
		t.Logf("an analytic window with one CPU step allocates %.0f times", perWindow)
	}
}

// TestConfigIsACopy: the configuration Testbed.Config returns shares the
// testbed's maps until it is written, so writing it must leave the testbed's
// configuration as it was.
func TestConfigIsACopy(t *testing.T) {
	cat, apps, cfg := setup(t, 4, "rubis1", "rubis2")
	tb, err := New(cat, apps, cfg, map[string]float64{"rubis1": 40, "rubis2": 40}, nil, noiseless(ModeAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Execute([]cluster.Action{{Kind: cluster.ActionIncreaseCPU, VM: "rubis1-web-0", DeltaCPUPct: cat.CPUStepPct}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.MeasureWindow(tb.Now() + 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	want, wantFinal := tb.cfg.RecomputeFingerprint(), tb.cfgFinal.RecomputeFingerprint()
	got, final := tb.Config(), tb.FinalConfig()
	for _, c := range []*cluster.Config{&got, &final} {
		c.Place("rubis1-web-0", "h3", 20)
		c.Unplace("rubis2-db-0")
		c.SetHostOn("h0", false)
		c.SetHostFreq("h1", 0.6)
	}
	if tb.cfg.RecomputeFingerprint() != want || tb.Config().Fingerprint() != want ||
		tb.cfgFinal.RecomputeFingerprint() != wantFinal || tb.FinalConfig().Fingerprint() != wantFinal {
		t.Fatal("writing the configuration Config or FinalConfig returned changed the testbed's")
	}
}
