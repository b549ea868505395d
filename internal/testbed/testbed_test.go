package testbed

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/lqn"
	"github.com/mistralcloud/mistral/internal/power"
)

// feasibleDst finds a powered-on host (other than the VM's current one)
// with capacity for the VM's allocation.
func feasibleDst(t *testing.T, cat *cluster.Catalog, cfg cluster.Config, vm cluster.VMID) string {
	t.Helper()
	p, ok := cfg.PlacementOf(vm)
	if !ok {
		t.Fatalf("VM %s not placed", vm)
	}
	for _, h := range cfg.ActiveHosts() {
		if h == p.Host {
			continue
		}
		spec, _ := cat.Host(h)
		if cfg.AllocatedCPU(h)+p.CPUPct <= spec.UsableCPUPct && len(cfg.VMsOnHost(h)) < spec.MaxVMs {
			return h
		}
	}
	t.Fatal("no feasible destination host")
	return ""
}

// noiseless disables measurement noise for exact comparisons.
func noiseless(mode Mode) Options {
	return Options{Mode: mode, Seed: 1, RTNoise: -1, WattsNoise: -1}
}

func setup(t *testing.T, nHosts int, appNames ...string) (*cluster.Catalog, []*app.Spec, cluster.Config) {
	t.Helper()
	apps := make([]*app.Spec, len(appNames))
	for i, n := range appNames {
		apps[i] = app.RUBiS(n)
	}
	hosts := make([]cluster.HostSpec, nHosts)
	for i := range hosts {
		hosts[i] = cluster.DefaultHostSpec("h" + string(rune('0'+i)))
	}
	cat, err := app.BuildCatalog(hosts, apps)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := app.DefaultConfig(cat, apps, min(nHosts, 2*len(apps)), 40)
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate demands to the paper's operating point.
	load := map[string]float64{}
	for _, n := range appNames {
		load[n] = 50
	}
	if _, err := lqn.CalibrateDemands(cat, apps, cfg, load, appNames[0]); err != nil {
		t.Fatal(err)
	}
	return cat, apps, cfg
}

func TestSteadyWindowMatchesModel(t *testing.T) {
	cat, apps, cfg := setup(t, 4, "rubis1", "rubis2")
	rates := map[string]float64{"rubis1": 40, "rubis2": 40}
	tb, err := New(cat, apps, cfg, rates, nil, noiseless(ModeAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	w, err := tb.MeasureWindow(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	model, err := lqn.NewModel(cat, apps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Evaluate(cfg, rates, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rubis1", "rubis2"} {
		if got, want := w.RTSec[name], res.MeanRTSec(name); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s RT = %v, want model %v", name, got, want)
		}
	}
	util := map[string]float64{}
	for h, hr := range res.Hosts {
		util[h] = hr.CPUUtil
	}
	if got, want := w.Watts, power.SystemWatts(cat, cfg, util); math.Abs(got-want) > 1e-9 {
		t.Errorf("watts = %v, want %v", got, want)
	}
	if tb.Now() != 2*time.Minute {
		t.Errorf("clock = %v, want 2m", tb.Now())
	}
}

func TestExecuteMigrationChargesTransientsAndMovesVM(t *testing.T) {
	cat, apps, cfg := setup(t, 4, "rubis1", "rubis2")
	rates := map[string]float64{"rubis1": 50, "rubis2": 50}
	tb, err := New(cat, apps, cfg, rates, nil, noiseless(ModeAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	// Baseline steady window.
	w0, err := tb.MeasureWindow(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	// Migrate a db VM to another host with room for it.
	dst := feasibleDst(t, cat, cfg, "rubis1-db-0")
	rep, err := tb.Execute([]cluster.Action{{Kind: cluster.ActionMigrate, VM: "rubis1-db-0", Host: dst}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration <= 0 {
		t.Fatal("zero-duration migration")
	}
	if rep.Applied != 1 || rep.Failed != 0 || rep.Skipped != 0 {
		t.Errorf("report = %+v, want one applied step", rep)
	}
	if !tb.Busy() {
		t.Error("testbed not busy during scheduled migration")
	}

	// Window covering the migration must show elevated RT and watts.
	w1, err := tb.MeasureWindow(4 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if w1.RTSec["rubis1"] <= w0.RTSec["rubis1"] {
		t.Errorf("migration did not raise target RT: %v -> %v", w0.RTSec["rubis1"], w1.RTSec["rubis1"])
	}
	if w1.Watts <= w0.Watts {
		t.Errorf("migration did not raise watts: %v -> %v", w0.Watts, w1.Watts)
	}

	// After completion the VM has moved and the system is idle again.
	if err := func() error { _, err := tb.MeasureWindow(6 * time.Minute); return err }(); err != nil {
		t.Fatal(err)
	}
	if tb.Busy() {
		t.Error("still busy after migration should have completed")
	}
	if p, _ := tb.Config().PlacementOf("rubis1-db-0"); p.Host != dst {
		t.Errorf("VM on %s, want %s", p.Host, dst)
	}
}

func TestExecuteValidatesAgainstFinalConfig(t *testing.T) {
	cat, apps, cfg := setup(t, 4, "rubis1")
	rates := map[string]float64{"rubis1": 50}
	tb, err := New(cat, apps, cfg, rates, nil, noiseless(ModeAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	// First plan adds the second db replica.
	if _, err := tb.Execute([]cluster.Action{{Kind: cluster.ActionAddReplica, VM: "rubis1-db-1", Host: cfg.ActiveHosts()[0]}}); err != nil {
		t.Fatal(err)
	}
	// Second plan adding the same replica must fail against cfgFinal even
	// though the current config does not yet contain it.
	if _, err := tb.Execute([]cluster.Action{{Kind: cluster.ActionAddReplica, VM: "rubis1-db-1", Host: cfg.ActiveHosts()[0]}}); err == nil {
		t.Error("duplicate add accepted against stale config")
	}
	// An invalid step anywhere rejects the whole plan atomically.
	before := tb.FinalConfig()
	_, err = tb.Execute([]cluster.Action{
		{Kind: cluster.ActionIncreaseCPU, VM: "rubis1-web-0"},
		{Kind: cluster.ActionMigrate, VM: "ghost", Host: "h0"},
	})
	if err == nil || !strings.Contains(err.Error(), "step 1") {
		t.Errorf("err = %v, want step 1 failure", err)
	}
	if !tb.FinalConfig().Equal(before) {
		t.Error("failed plan mutated final config")
	}
}

func TestHostPowerCycling(t *testing.T) {
	cat, apps, cfg := setup(t, 4, "rubis1")
	// Only 2 hosts on initially.
	rates := map[string]float64{"rubis1": 30}
	tb, err := New(cat, apps, cfg, rates, nil, noiseless(ModeAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	w0, err := tb.MeasureWindow(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	var offHost string
	for _, h := range cat.HostNames() {
		if !cfg.HostOn(h) {
			offHost = h
			break
		}
	}
	if offHost == "" {
		t.Fatal("no off host available")
	}
	// Start the host and immediately use it: sequential phases make the
	// replica addition feasible.
	if _, err := tb.Execute([]cluster.Action{
		{Kind: cluster.ActionStartHost, Host: offHost},
		{Kind: cluster.ActionAddReplica, VM: "rubis1-db-1", Host: offHost},
	}); err != nil {
		t.Fatal(err)
	}
	// During boot (90s) the system draws +80W over baseline.
	w1, err := tb.MeasureWindow(2*time.Minute + 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Watts < w0.Watts+60 {
		t.Errorf("boot window watts = %v, want >= baseline+60 (%v)", w1.Watts, w0.Watts+60)
	}
	// Let everything complete; now 3 hosts draw power and the replica runs.
	for tb.Busy() {
		if _, err := tb.MeasureWindow(tb.Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	final := tb.Config()
	if !final.HostOn(offHost) {
		t.Error("host not on after boot")
	}
	if p, ok := final.PlacementOf("rubis1-db-1"); !ok || p.Host != offHost {
		t.Errorf("replica placement = %+v ok=%v", p, ok)
	}

	// Now remove the replica and stop the host again.
	if _, err := tb.Execute([]cluster.Action{
		{Kind: cluster.ActionRemoveReplica, VM: "rubis1-db-1"},
		{Kind: cluster.ActionStopHost, Host: offHost},
	}); err != nil {
		t.Fatal(err)
	}
	for tb.Busy() {
		if _, err := tb.MeasureWindow(tb.Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Config().HostOn(offHost) {
		t.Error("host still on after stop")
	}
	wEnd, err := tb.MeasureWindow(tb.Now() + 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if wEnd.Watts >= w1.Watts {
		t.Errorf("watts after consolidation = %v, want below boot-window %v", wEnd.Watts, w1.Watts)
	}
}

func TestMeasureWindowErrors(t *testing.T) {
	cat, apps, cfg := setup(t, 2, "rubis1")
	tb, err := New(cat, apps, cfg, map[string]float64{"rubis1": 10}, nil, noiseless(ModeAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.MeasureWindow(0); err == nil {
		t.Error("zero-length window accepted")
	}
	if _, err := tb.MeasureWindow(time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.MeasureWindow(30 * time.Second); err == nil {
		t.Error("backwards window accepted")
	}
}

func TestNewValidation(t *testing.T) {
	cat, apps, cfg := setup(t, 2, "rubis1")
	bad := cfg.Clone()
	bad.Place("rubis1-web-0", "h0", 5) // below minimum
	if _, err := New(cat, apps, bad, nil, nil, noiseless(ModeAnalytic)); err == nil {
		t.Error("invalid initial config accepted")
	}
}

func TestRequestLevelMigrationTransient(t *testing.T) {
	cat, apps, cfg := setup(t, 4, "rubis1", "rubis2")
	rates := map[string]float64{"rubis1": 50, "rubis2": 50}
	tb, err := New(cat, apps, cfg, rates, nil, noiseless(ModeRequestLevel))
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up then baseline.
	if _, err := tb.MeasureWindow(time.Minute); err != nil {
		t.Fatal(err)
	}
	w0, err := tb.MeasureWindow(3 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if w0.Completed["rubis1"] == 0 {
		t.Fatal("no completions at request level")
	}

	dst := feasibleDst(t, cat, cfg, "rubis1-db-0")
	if _, err := tb.Execute([]cluster.Action{{Kind: cluster.ActionMigrate, VM: "rubis1-db-0", Host: dst}}); err != nil {
		t.Fatal(err)
	}
	w1, err := tb.MeasureWindow(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if w1.RTSec["rubis1"] <= w0.RTSec["rubis1"] {
		t.Errorf("request-level migration did not raise RT: %v -> %v", w0.RTSec["rubis1"], w1.RTSec["rubis1"])
	}
	if w1.Watts <= w0.Watts {
		t.Errorf("request-level migration did not raise watts: %v -> %v", w0.Watts, w1.Watts)
	}

	// Host cycling unsupported at request level.
	if _, err := tb.Execute([]cluster.Action{{Kind: cluster.ActionStartHost, Host: "h3"}}); err == nil {
		t.Error("host cycling accepted in request-level mode")
	}
}

// TestRequestLevelIsDeterministic pins the request-level testbed to its
// seed: every application's arrival stream draws from the simulator's one
// generator, so testbeds built alike must measure identical windows, before
// and after a rate change. A map-ordered start reverses two applications'
// order about one time in eight, so it takes a few dozen testbeds to show.
func TestRequestLevelIsDeterministic(t *testing.T) {
	cat, apps, cfg := setup(t, 4, "rubis1", "rubis2")
	measure := func() []Window {
		tb, err := New(cat, apps, cfg, map[string]float64{"rubis1": 50, "rubis2": 40}, nil, noiseless(ModeRequestLevel))
		if err != nil {
			t.Fatal(err)
		}
		w0, err := tb.MeasureWindow(15 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.SetRates(map[string]float64{"rubis1": 30, "rubis2": 60}); err != nil {
			t.Fatal(err)
		}
		w1, err := tb.MeasureWindow(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return []Window{w0, w1}
	}
	first := measure()
	for i := 1; i < 32; i++ {
		if again := measure(); !reflect.DeepEqual(first, again) {
			t.Fatalf("testbed %d measured differently from the first:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
}

func TestSetRatesPropagates(t *testing.T) {
	cat, apps, cfg := setup(t, 4, "rubis1")
	tb, err := New(cat, apps, cfg, map[string]float64{"rubis1": 10}, nil, noiseless(ModeAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	w0, err := tb.MeasureWindow(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SetRates(map[string]float64{"rubis1": 90}); err != nil {
		t.Fatal(err)
	}
	w1, err := tb.MeasureWindow(4 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if w1.RTSec["rubis1"] <= w0.RTSec["rubis1"] {
		t.Errorf("higher rate did not raise RT: %v -> %v", w0.RTSec["rubis1"], w1.RTSec["rubis1"])
	}
	if got := tb.Rates()["rubis1"]; got != 90 {
		t.Errorf("Rates() = %v, want 90", got)
	}
}

// TestSetRatesRefusesPartialMap holds SetRates to a total map: one that
// omits an application the testbed models is refused, and the rates stay as
// they were, instead of the omitted application keeping its old rate while
// the caller reads it as zero.
func TestSetRatesRefusesPartialMap(t *testing.T) {
	cat, apps, cfg := setup(t, 4, "rubis1", "rubis2")
	tb, err := New(cat, apps, cfg, map[string]float64{"rubis1": 10, "rubis2": 20}, nil, noiseless(ModeAnalytic))
	if err != nil {
		t.Fatal(err)
	}
	for _, rates := range []map[string]float64{{"rubis1": 5}, {}, nil} {
		if err := tb.SetRates(rates); err == nil || !strings.Contains(err.Error(), `omit application "rubis`) {
			t.Errorf("SetRates(%v) = %v, want the omission refused", rates, err)
		}
	}
	if got := tb.Rates(); got["rubis1"] != 10 || got["rubis2"] != 20 {
		t.Errorf("refused maps moved the rates to %v", got)
	}
	if err := tb.SetRates(map[string]float64{"rubis1": 5, "rubis2": 0}); err != nil {
		t.Errorf("a total map with a zero rate: %v", err)
	}
}
