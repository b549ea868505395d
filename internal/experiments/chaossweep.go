package experiments

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// ChaosSweepCell is one (rate, execution policy) replay.
type ChaosSweepCell struct {
	Rate   float64
	Exec   testbed.ExecPolicy
	Result *scenario.Result
	Faults fault.Counts
	// Guard admission totals and breaker trips over the replay.
	GuardAdmitted int64
	GuardRejected int64
	BreakerOpens  int64
	// Violations lists every broken safety invariant, labeled by window.
	// A correct implementation produces none; the chaossweep exists to
	// prove that under fire.
	Violations []string
}

// ChaosSweepResult holds the rate × policy grid.
type ChaosSweepResult struct {
	Rates []float64
	Cells []ChaosSweepCell
}

// Violations aggregates every invariant breach across the grid.
func (r *ChaosSweepResult) Violations() []string {
	var out []string
	for _, c := range r.Cells {
		out = append(out, c.Violations...)
	}
	return out
}

// chaosInvariants asserts the per-window safety contract and returns the
// breaches found:
//
//   - placement integrity: no VM is lost — every active VM sits on a known,
//     powered-on host, and the cluster never empties out. Capacity
//     violations (an oversubscribed host, an emptied required tier) are
//     deliberately NOT breaches: a partially applied plan or a host crash
//     legitimately leaves the cluster degraded until retries or the next
//     control window repair it;
//   - a rolled-back plan provably restored the pre-plan fingerprint;
//   - under fail-forward no compensation ever runs;
//   - the utility ledger stays consistent: the running sum of per-window
//     utility equals the reported cumulative utility.
func chaosInvariants(idx int, cat *cluster.Catalog, tb *testbed.Testbed, w scenario.WindowLog, exec testbed.ExecPolicy, utilSum float64) []string {
	var out []string
	cfg := tb.FinalConfig()
	for _, vm := range cfg.ActiveVMs() {
		if _, ok := cat.VM(vm); !ok {
			out = append(out, fmt.Sprintf("window %d: unknown VM %q active", idx, vm))
			continue
		}
		p, ok := cfg.PlacementOf(vm)
		if !ok {
			out = append(out, fmt.Sprintf("window %d: active VM %q has no placement", idx, vm))
			continue
		}
		if _, ok := cat.Host(p.Host); !ok {
			out = append(out, fmt.Sprintf("window %d: VM %q placed on unknown host %q", idx, vm, p.Host))
			continue
		}
		if !cfg.HostOn(p.Host) {
			out = append(out, fmt.Sprintf("window %d: VM %q placed on powered-off host %q", idx, vm, p.Host))
		}
	}
	if len(cfg.ActiveVMs()) == 0 {
		out = append(out, fmt.Sprintf("window %d: cluster lost every VM", idx))
	}
	if w.Compensated && !w.FPRestored {
		out = append(out, fmt.Sprintf("window %d: rollback did not restore the pre-plan fingerprint", idx))
	}
	if exec == testbed.FailForward && (w.Compensated || w.RolledBack > 0) {
		out = append(out, fmt.Sprintf("window %d: compensation ran under fail-forward", idx))
	}
	if diff := math.Abs(utilSum - w.CumUtility); diff > 1e-6*math.Max(1, math.Abs(w.CumUtility)) {
		out = append(out, fmt.Sprintf("window %d: utility ledger drift: sum %.9f vs cumulative %.9f", idx, utilSum, w.CumUtility))
	}
	return out
}

// runChaosCell replays rc under one chaos rate with guard and breaker
// active, stepping the engine window by window so the invariants are
// checked against live state, not a post-hoc summary.
func runChaosCell(rc Recipe, rate float64, d time.Duration) (ChaosSweepCell, error) {
	exec := rc.ExecPolicy
	cell := ChaosSweepCell{Rate: rate, Exec: exec}
	rp, err := rc.Build(scenario.RunConfig{Duration: d, Fault: fault.New(fault.ChaosProfile(rate, cmp.Or(rc.FaultSeed, rc.Lab.Seed)))})
	if err != nil {
		return cell, err
	}
	utilSum := 0.0
	for !rp.Engine.Done() {
		sr, err := rp.Engine.Step()
		if err != nil {
			return cell, fmt.Errorf("window %d: %w", sr.Index, err)
		}
		utilSum += sr.Window.Utility
		cell.Violations = append(cell.Violations, chaosInvariants(sr.Index, rp.Lab.Cat, rp.Testbed, sr.Window, exec, utilSum)...)
	}
	cell.Result = rp.Engine.Result()
	cell.Faults = rp.Fault.Counts()
	cell.GuardAdmitted, cell.GuardRejected, cell.BreakerOpens = rp.Guard.Stats()
	return cell, nil
}

// ChaosSweep runs the transactional-robustness study: base replayed under
// the hostile fault.ChaosProfile mix (simultaneous crashes, failures, and
// delays, mostly non-retryable) at every chaos rate, once per execution
// policy, guard always on, while a set of safety invariants is asserted
// after every window. base's fault seed (Lab.Seed when zero) seeds the
// chaos schedule.
func ChaosSweep(base Recipe, opts SweepOptions) (*ChaosSweepResult, error) {
	opts = opts.withDefaults(0.15, 0.30)
	out := &ChaosSweepResult{Rates: opts.Rates}
	for _, rate := range opts.Rates {
		for _, exec := range []testbed.ExecPolicy{testbed.FailForward, testbed.RollbackOnFailure} {
			rc := base
			rc.ExecPolicy, rc.Guard = exec, true
			cell, err := runChaosCell(rc, rate, opts.Duration)
			if err != nil {
				return nil, fmt.Errorf("experiments: chaos sweep %s @ %.0f%%: %w", exec, rate*100, err)
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, nil
}

// Tables renders the sweep: a transactional-safety ledger per cell plus
// the invariant verdict.
func (r *ChaosSweepResult) Tables() []Table {
	ledger := Table{
		Title: "Chaos sweep — transactional safety ledger (Mistral, guard on)",
		Header: []string{"chaos rate", "exec policy", "cum utility", "degraded wins",
			"failed acts", "rolled back", "compensated", "guard rejects", "breaker opens", "invariant breaches"},
	}
	for _, c := range r.Cells {
		ledger.Rows = append(ledger.Rows, []string{
			fmt.Sprintf("%.0f%%", c.Rate*100), c.Exec.String(),
			f1(c.Result.CumUtility), fmt.Sprint(c.Result.DegradedWindows),
			fmt.Sprint(c.Result.FailedActions), fmt.Sprint(c.Result.RolledBackActions),
			fmt.Sprint(c.Result.CompensatedPlans), fmt.Sprint(c.Result.GuardRejections),
			fmt.Sprint(c.BreakerOpens), fmt.Sprint(len(c.Violations)),
		})
	}
	verdict := Table{Title: "Chaos sweep — invariant verdict", Header: []string{"verdict"}}
	if v := r.Violations(); len(v) > 0 {
		for _, msg := range v {
			verdict.Rows = append(verdict.Rows, []string{"BREACH: " + msg})
		}
	} else {
		verdict.Rows = append(verdict.Rows, []string{"all safety invariants held in every window"})
	}
	return []Table{ledger, verdict}
}
