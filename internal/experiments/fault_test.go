package experiments

import (
	"reflect"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/scenario"
)

// shortReplay runs rc for the scenario's first hour (30 windows) with the
// paper recipe's Mistral knobs.
func shortReplay(t *testing.T, rc Recipe, run scenario.RunConfig) *Replay {
	t.Helper()
	run.Duration = time.Hour
	rc.Mistral = PaperRecipe(0).Mistral
	rp, err := replay(rc, run)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// TestFaultDisabledIsByteIdentical pins the opt-in contract: at rate 0 the
// fault plane is absent whatever its seed, and the replay is byte-identical
// to one that never named a fault seed.
func TestFaultDisabledIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	rc := Recipe{Lab: LabOptions{NumApps: 2, Seed: 7}, Strategy: "mistral"}
	base := shortReplay(t, rc, scenario.RunConfig{})
	rc.FaultSeed = 99
	seeded := shortReplay(t, rc, scenario.RunConfig{})
	if seeded.Fault != nil {
		t.Errorf("rate 0 built a fault injector: %+v", seeded.Fault.Counts())
	}
	if !reflect.DeepEqual(base.Engine.Result(), seeded.Engine.Result()) {
		t.Errorf("zero-rate fault seed changes the replay:\nbase:   %+v\nseeded: %+v", base.Engine.Result(), seeded.Engine.Result())
	}
}

// TestFaultReplayDegradesGracefully is the headline robustness acceptance:
// a replay at 15% action-failure rate completes without aborting, records
// degraded windows, and the fault counters show injections happened.
func TestFaultReplayDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	rp := shortReplay(t, Recipe{Lab: LabOptions{NumApps: 2, Seed: 7}, Strategy: "mistral", FaultRate: 0.15}, scenario.RunConfig{})
	res, counts := rp.Engine.Result(), rp.Fault.Counts()
	if len(res.Windows) != 30 {
		t.Errorf("windows = %d, want 30 (the replay must run to completion)", len(res.Windows))
	}
	if counts.Injected == 0 {
		t.Error("injector drew no faults at 15%")
	}
	if res.DegradedWindows == 0 {
		t.Error("no degraded windows recorded under sustained faults")
	}
	if res.FailedActions+res.SensorDrops+res.HostCrashes == 0 {
		t.Errorf("no fault effects surfaced in the result: %+v", res)
	}
}

// runFaultyMistral replays the first hour under Mistral with a 15% fault
// profile.
func runFaultyMistral(t *testing.T) *scenario.Result {
	t.Helper()
	rc := Recipe{Lab: LabOptions{NumApps: 2, Seed: 11}, Strategy: "mistral", FaultRate: 0.15, FaultSeed: 99}
	return shortReplay(t, rc, scenario.RunConfig{}).Engine.Result()
}

// TestFaultDeterminismAcrossWorkers pins the seeded fault schedule: the
// identical fault seed must yield byte-identical results on two fresh
// replays.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	first := runFaultyMistral(t)
	second := runFaultyMistral(t)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("faulty replay diverges run-to-run:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if first.DegradedWindows == 0 {
		t.Error("determinism run saw no degradation; fault schedule inert")
	}
}

// TestFaultHammer drives the full strategy set at a hostile 30% failure
// rate (with crashes, delays, and sensor faults scaled up accordingly).
// Run under -race in CI, it shakes out data races between the injector
// and the testbed; functionally it asserts
// the control loop survives and Mistral still beats at least one baseline.
func TestFaultHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep replay")
	}
	sweep, err := FaultSweep(PaperRecipe(7), SweepOptions{
		Rates:    []float64{0.30},
		Duration: time.Hour,
	})
	if err != nil {
		t.Fatalf("30%% fault sweep aborted: %v", err)
	}
	cum := sweep.CumUtility(0)
	if len(cum) != 4 {
		t.Fatalf("cum utilities = %v, want all 4 strategies", cum)
	}
	mistral := cum[StrategyMistral]
	beaten := 0
	for _, s := range []StrategyName{StrategyPerfPwr, StrategyPerfCost, StrategyPwrCost} {
		if mistral >= cum[s] {
			beaten++
		}
	}
	if beaten == 0 {
		t.Errorf("Mistral (%.1f) beats no baseline under 30%% faults: %v", mistral, cum)
	}
	for name, cells := range sweep.Cells {
		if cells[0].Faults.Injected == 0 {
			t.Errorf("%s: no faults injected at 30%%", name)
		}
	}
	if tables := sweep.Tables(); len(tables) != 3 {
		t.Errorf("Tables() = %d tables, want 3", len(tables))
	}
}
