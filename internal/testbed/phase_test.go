package testbed

import (
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
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

// TestEveryActionKindIsARowOrARefusal walks every action kind: each either
// has DES operations in phaseTable, or request-level mode refuses it with
// the error its row names while analytic mode runs the same plan.
func TestEveryActionKindIsARowOrARefusal(t *testing.T) {
	cat, apps, cfg := setup(t, 4, "rubis1")
	cfg.SetHostOn("h2", true) // empty, so it can stop; h3 stays off to start
	rates := map[string]float64{"rubis1": 40}
	for k := cluster.ActionIncreaseCPU; k <= cluster.ActionWANMigrate; k++ {
		row := phaseTable[k]
		ops := len(row.start) + len(row.freeze) + len(row.end)
		if row.refusal == "" {
			if ops == 0 {
				t.Errorf("%s: no DES operations and no refusal", k)
			}
			continue
		}
		if ops > 0 {
			t.Errorf("%s: refused, yet has DES operations", k)
		}
		plan := cluster.Enumerate(cat, cfg, cluster.ActionSpace{Kinds: []cluster.ActionKind{k}})
		if len(plan) == 0 {
			t.Fatalf("%s: no valid action to try", k)
		}
		for _, mode := range []Mode{ModeAnalytic, ModeRequestLevel} {
			tb, err := New(cat, apps, cfg, rates, nil, noiseless(mode))
			if err != nil {
				t.Fatal(err)
			}
			_, err = tb.Execute(plan[:1])
			switch want := row.refusal + " is not supported in request-level mode"; {
			case mode == ModeAnalytic && err != nil:
				t.Errorf("%s: analytic mode refused %s: %v", k, plan[0], err)
			case mode == ModeRequestLevel && (err == nil || !strings.Contains(err.Error(), want)):
				t.Errorf("%s: request-level error %v, want one saying %q", k, err, want)
			}
		}
	}
}
