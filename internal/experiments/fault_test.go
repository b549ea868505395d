package experiments

import (
	"reflect"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
)

// shortLab builds a 2-app lab with its traces trimmed to one hour.
func shortLab(t *testing.T, seed uint64) *Lab {
	t.Helper()
	lab, err := NewLab(LabOptions{NumApps: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for name := range lab.Traces {
		lab.Traces[name].Rates = lab.Traces[name].Rates[:61]
	}
	return lab
}

// TestFaultDisabledIsByteIdentical pins the opt-in contract: running the
// fault-aware path with an all-zero fault profile must reproduce the
// pre-existing fault-free path byte for byte.
func TestFaultDisabledIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	lab := shortLab(t, 7)
	base, _, err := RunStrategy(lab, StrategyMistral, false)
	if err != nil {
		t.Fatal(err)
	}
	viaFault, counts, err := RunStrategyWithFaults(lab, StrategyMistral, fault.Profile(0, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if counts != (fault.Counts{}) {
		t.Errorf("disabled injector drew faults: %+v", counts)
	}
	if !reflect.DeepEqual(base, viaFault) {
		t.Errorf("zero-rate fault path diverges from fault-free path:\nbase: %+v\nfault: %+v", base, viaFault)
	}
}

// TestFaultReplayDegradesGracefully is the headline robustness acceptance:
// a replay at 15% action-failure rate completes without aborting, records
// degraded windows, and the fault counters show injections happened.
func TestFaultReplayDegradesGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	lab := shortLab(t, 7)
	res, counts, err := RunStrategyWithFaults(lab, StrategyMistral, fault.Profile(0.15, 7), 0)
	if err != nil {
		t.Fatalf("15%% fault replay aborted: %v", err)
	}
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

// runFaultyMistral replays the trimmed scenario under Mistral with a 15%
// fault profile.
func runFaultyMistral(t *testing.T) *scenario.Result {
	t.Helper()
	lab := shortLab(t, 11)
	eval, err := lab.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	m, err := strategy.NewMistral(eval, strategy.MistralConfig{
		HostGroups:         lab.HostGroups(),
		MonitoringInterval: lab.Util.MonitoringInterval,
		Search:             core.SearchOptions{TimePerChild: 300 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(fault.Profile(0.15, 99))
	tb, err := lab.NewTestbedWithFaults(inj)
	if err != nil {
		t.Fatal(err)
	}
	sc := lab.ScenarioConfig()
	res, err := scenario.Run(tb, m, scenario.RunConfig{
		Traces:   lab.Traces,
		Duration: sc.Duration,
		Interval: sc.Interval,
		Utility:  lab.Util,
		Fault:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
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
	sweep, err := FaultSweep(FaultSweepOptions{
		Seed:     7,
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
