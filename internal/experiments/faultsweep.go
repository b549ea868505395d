package experiments

import (
	"fmt"
	"time"

	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/workload"
)

// SweepOptions bounds the fault and chaos sweeps.
type SweepOptions struct {
	// Rates are the fault rates to sweep (default 0, 5, 15 and 30% for
	// FaultSweep, whose fault.Profile derives delay, sensor, and crash
	// rates from each; 15 and 30% for ChaosSweep).
	Rates []float64
	// Duration bounds each replay (default 2 hours — long enough for
	// retries, crashes, and degraded windows to show, short enough to keep
	// the 4×4 sweep tractable; at most the whole scenario).
	Duration time.Duration
}

// withDefaults fills in rates when none were given, and the duration.
func (o SweepOptions) withDefaults(rates ...float64) SweepOptions {
	if len(o.Rates) == 0 {
		o.Rates = rates
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Hour
	}
	o.Duration = min(o.Duration, workload.ScenarioDuration)
	return o
}

// FaultSweepCell is one (strategy, rate) replay.
type FaultSweepCell struct {
	Rate   float64
	Result *scenario.Result
	// Faults snapshots the injector's draw counters after the replay
	// (all zero at rate 0, where no injector is attached).
	Faults fault.Counts
}

// FaultSweepResult holds the full strategy × rate grid.
type FaultSweepResult struct {
	Rates []float64
	// Cells maps each strategy to its per-rate replays, parallel to Rates.
	Cells map[StrategyName][]FaultSweepCell
}

// FaultSweep reproduces the robustness study: Mistral and the three
// baselines replayed at every fault rate, each a variant of base with its
// strategy and fault rate set (base's seeds drive the lab and the fault
// schedule, so the same base reproduces the sweep byte for byte). At rate
// 0 the injector is absent and each replay of PaperRecipe is
// byte-identical to the fault-free Fig. 8/9 path; at higher rates the
// comparison shows how much utility each strategy preserves while actions
// fail, hosts crash, and sensors drop.
func FaultSweep(base Recipe, opts SweepOptions) (*FaultSweepResult, error) {
	opts = opts.withDefaults(0, 0.05, 0.15, 0.30)
	out := &FaultSweepResult{
		Rates: opts.Rates,
		Cells: make(map[StrategyName][]FaultSweepCell, 4),
	}
	for _, rate := range opts.Rates {
		for _, name := range AllStrategies() {
			rc := base
			rc.Strategy, rc.FaultRate = string(name), rate
			rp, err := replay(rc, scenario.RunConfig{Duration: opts.Duration})
			if err != nil {
				return nil, fmt.Errorf("experiments: fault sweep %s @ %.0f%%: %w", name, rate*100, err)
			}
			out.Cells[name] = append(out.Cells[name], FaultSweepCell{
				Rate: rate, Result: rp.Engine.Result(), Faults: rp.Fault.Counts(),
			})
		}
	}
	return out, nil
}

// CumUtility returns each strategy's final cumulative utility at the given
// rate index.
func (r *FaultSweepResult) CumUtility(rateIdx int) map[StrategyName]float64 {
	out := make(map[StrategyName]float64, len(r.Cells))
	for name, cells := range r.Cells {
		if rateIdx < len(cells) {
			out[name] = cells[rateIdx].Result.CumUtility
		}
	}
	return out
}

// Tables renders the sweep: cumulative utility and target violations per
// strategy × rate, plus a degradation ledger per cell.
func (r *FaultSweepResult) Tables() []Table {
	order := AllStrategies()
	header := []string{"fault rate"}
	for _, s := range order {
		header = append(header, string(s))
	}
	cum := Table{Title: "Fault sweep — final cumulative utility (dollars)", Header: header}
	viol := Table{Title: "Fault sweep — target violations (app-windows)", Header: header}
	for i, rate := range r.Rates {
		rowU := []string{fmt.Sprintf("%.0f%%", rate*100)}
		rowV := []string{fmt.Sprintf("%.0f%%", rate*100)}
		for _, s := range order {
			cells := r.Cells[s]
			if i >= len(cells) {
				rowU, rowV = append(rowU, ""), append(rowV, "")
				continue
			}
			rowU = append(rowU, f1(cells[i].Result.CumUtility))
			rowV = append(rowV, fmt.Sprint(cells[i].Result.TargetViolations))
		}
		cum.Rows = append(cum.Rows, rowU)
		viol.Rows = append(viol.Rows, rowV)
	}

	ledger := Table{
		Title: "Fault sweep — degradation ledger",
		Header: []string{"strategy", "fault rate", "degraded wins", "decide errs",
			"failed acts", "skipped", "retries", "crashes", "sensor drops", "injected"},
	}
	for _, s := range order {
		for i, rate := range r.Rates {
			cells := r.Cells[s]
			if i >= len(cells) {
				continue
			}
			res, counts := cells[i].Result, cells[i].Faults
			ledger.Rows = append(ledger.Rows, []string{
				string(s), fmt.Sprintf("%.0f%%", rate*100),
				fmt.Sprint(res.DegradedWindows), fmt.Sprint(res.DecideErrors),
				fmt.Sprint(res.FailedActions), fmt.Sprint(res.SkippedActions),
				fmt.Sprint(res.Retries), fmt.Sprint(res.HostCrashes),
				fmt.Sprint(res.SensorDrops), fmt.Sprint(counts.Injected),
			})
		}
	}
	return []Table{cum, viol, ledger}
}
