package testbed

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/fault"
)

// TestDESErrorAbortsWindow desynchronises the request-level DES from the
// configuration — the DES loses a replica the configuration still places —
// and then migrates that replica: the window's measurement must fail naming
// the VM rather than be measured on whatever state the DES was left in.
func TestDESErrorAbortsWindow(t *testing.T) {
	cat, apps, cfg := setup(t, 4, "rubis1", "rubis2")
	const vm = cluster.VMID("rubis1-app-1")
	cfg.Place(vm, roomyHost(t, cat, cfg, "rubis1-app-0"), 30)
	tb, err := New(cat, apps, cfg, map[string]float64{"rubis1": 40, "rubis2": 30}, nil, noiseless(ModeRequestLevel))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.qsys.RemoveVM(vm); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Execute([]cluster.Action{{Kind: cluster.ActionMigrate, VM: vm, Host: feasibleDst(t, cat, cfg, vm)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.MeasureWindow(2 * time.Minute); err == nil || !strings.Contains(err.Error(), string(vm)) {
		t.Fatalf("MeasureWindow error = %v, want one naming %s", err, vm)
	}
}

// TestEveryActionKindIsARow walks every action kind: each has DES
// operations in phaseTable, so request-level mode runs every plan the
// controllers can emit.
func TestEveryActionKindIsARow(t *testing.T) {
	for k := cluster.ActionIncreaseCPU; k <= cluster.ActionWANMigrate; k++ {
		if row := phaseTable[k]; len(row.start)+len(row.freeze)+len(row.end) == 0 {
			t.Errorf("%s: no DES operations", k)
		}
	}
}

// TestPowerCycleRunsOnTheDES starts an off host and stops an empty one in
// request-level mode. The DES gains the host's Dom-0 when the start phase
// ends and drops it when the stop phase begins, and each phase's predicted
// boot or shutdown draw is time-weighted into the window's watts. Under an
// injected failure neither operation runs: the host stays as it was.
func TestPowerCycleRunsOnTheDES(t *testing.T) {
	const host = "h2"
	for _, kind := range []cluster.ActionKind{cluster.ActionStartHost, cluster.ActionStopHost} {
		for _, failed := range []bool{false, true} {
			cat, apps, cfg := setup(t, 4, "rubis1") // h0 and h1 serve; h2 is off
			wasOn := kind == cluster.ActionStopHost
			cfg.SetHostOn(host, wasOn)
			opts := noiseless(ModeRequestLevel)
			if failed {
				opts = faulty(ModeRequestLevel, fault.Options{Seed: 3, ActionFailRate: 1})
			}
			tb, err := New(cat, apps, cfg, map[string]float64{"rubis1": 40}, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tb.Execute([]cluster.Action{{Kind: kind, Host: host}}); err != nil {
				t.Fatalf("%s (failed=%v): %v", kind, failed, err)
			}
			ph := tb.phases[0]
			if got := tb.windowNetWatts(ph.start, ph.end); ph.pred.DeltaWatts == 0 || math.Abs(got-ph.pred.DeltaWatts) > 1e-9 {
				t.Errorf("%s (failed=%v): transient watts over the phase %v, want its predicted draw %v (non-zero)", kind, failed, got, ph.pred.DeltaWatts)
			}
			for tb.Busy() {
				if _, err := tb.MeasureWindow(tb.Now() + 2*time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			w, err := tb.MeasureWindow(tb.Now() + 2*time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			wantOn := wasOn
			if !failed {
				wantOn = !wasOn
			}
			if _, on := w.HostUtil[host]; on != wantOn || tb.Config().HostOn(host) != wantOn {
				t.Errorf("%s (failed=%v): host measured %v, configured %v; want both %v", kind, failed, on, tb.Config().HostOn(host), wantOn)
			}
		}
	}
}
