package experiments

import (
	"reflect"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/testbed"
)

// TestChaosSweepInvariantsAndDeterminism is the chaos-plane acceptance: a
// 30% chaos-profile sweep (crashes + failures + delays, mostly terminal)
// holds every safety invariant in every window under both execution
// policies, the rollback cell actually exercises compensation, and the
// whole grid is byte-identical run to run.
func TestChaosSweepInvariantsAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep replay")
	}
	run := func() *ChaosSweepResult {
		r, err := ChaosSweep(PaperRecipe(7), SweepOptions{
			Rates:    []float64{0.30},
			Duration: time.Hour,
		})
		if err != nil {
			t.Fatalf("chaos sweep aborted: %v", err)
		}
		return r
	}
	sweep := run()
	if v := sweep.Violations(); len(v) > 0 {
		t.Fatalf("safety invariants breached:\n%v", v)
	}
	if len(sweep.Cells) != 2 {
		t.Fatalf("cells = %d, want fail-forward + rollback", len(sweep.Cells))
	}
	for _, c := range sweep.Cells {
		if c.Faults.Injected == 0 {
			t.Errorf("%s: no faults injected at 30%% chaos", c.Exec)
		}
		if c.Result.FailedActions == 0 {
			t.Errorf("%s: no failed actions at 30%% chaos", c.Exec)
		}
		if c.GuardAdmitted == 0 {
			t.Errorf("%s: guard admitted no plans; the sweep never adapted", c.Exec)
		}
		switch c.Exec {
		case testbed.FailForward:
			if c.Result.CompensatedPlans != 0 || c.Result.RolledBackActions != 0 {
				t.Errorf("fail-forward cell compensated: %+v", c.Result)
			}
		case testbed.RollbackOnFailure:
			if c.Result.CompensatedPlans == 0 {
				t.Error("rollback cell never compensated a plan; chaos profile inert")
			}
		}
	}
	if tables := sweep.Tables(); len(tables) != 2 {
		t.Errorf("Tables() = %d tables, want 2", len(tables))
	}

	// Determinism: the chaos schedule, the guard verdicts and the rollback
	// path repeat on a second sweep.
	if other := run(); !reflect.DeepEqual(sweep, other) {
		t.Error("chaos sweep diverges run to run")
	}
}
