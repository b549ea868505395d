package experiments

import (
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/workload"
)

// Fig10Result compares the Naive and Self-Aware searches on the
// 2-application scenario: controller power overhead, per-invocation search
// durations, and utility.
type Fig10Result struct {
	// SearchPowerPct is the controller host's power draw while searching,
	// as a percentage over its idle draw (the paper measures up to ≈12%
	// over a 60 W idle host).
	SearchPowerPct float64
	SelfAware      *scenario.Result
	Naive          *scenario.Result
}

// Fig10SearchCost reproduces Figure 10: the cost of decision making itself.
// The Self-Aware search bounds its own duration and power; the naive search
// runs the same scenario without self-cost awareness. The paper reports
// naive searches up to ≈4× longer (≈24 s vs ≈5.5 s) and cumulative
// utilities of 135.3 (naive) vs 152.3 (self-aware).
func Fig10SearchCost(seed uint64) (*Fig10Result, error) {
	rc := PaperRecipe(seed)
	aware, err := replay(rc, scenario.RunConfig{})
	if err != nil {
		return nil, err
	}
	rc.Strategy = "naive"
	naive, err := replay(rc, scenario.RunConfig{})
	if err != nil {
		return nil, err
	}
	// Controller host: a default host running the optimizer flat out vs
	// idle.
	spec := cluster.DefaultHostSpec("controller")
	return &Fig10Result{
		SearchPowerPct: (67 - spec.IdleWatts) / spec.IdleWatts * 100,
		SelfAware:      aware.Engine.Result(),
		Naive:          naive.Engine.Result(),
	}, nil
}

// MeanSearch returns the mean per-invocation search durations.
func (r *Fig10Result) MeanSearch() (selfAware, naive time.Duration) {
	return r.SelfAware.MeanSearchTime, r.Naive.MeanSearchTime
}

// Tables renders Figure 10.
func (r *Fig10Result) Tables() []Table {
	dur := Table{
		Title:  "Fig. 10b — Search duration per invocation (ms)",
		Header: []string{"time", "Self-aware", "Naive"},
	}
	util := Table{
		Title:  "Fig. 10c — Cumulative utility (dollars; paper: self-aware 152.3 vs naive 135.3)",
		Header: []string{"time", "Self-aware", "Naive"},
	}
	n := len(r.SelfAware.Windows)
	if len(r.Naive.Windows) > n {
		n = len(r.Naive.Windows)
	}
	for i := 0; i < n; i++ {
		var at time.Duration
		row := make([]string, 0, 3)
		urow := make([]string, 0, 3)
		if i < len(r.SelfAware.Windows) {
			at = r.SelfAware.Windows[i].Time
		} else {
			at = r.Naive.Windows[i].Time
		}
		row = append(row, workload.Clock(at))
		urow = append(urow, workload.Clock(at))
		for _, res := range []*scenario.Result{r.SelfAware, r.Naive} {
			if i < len(res.Windows) {
				row = append(row, f0(float64(res.Windows[i].SearchTime.Milliseconds())))
				urow = append(urow, f1(res.Windows[i].CumUtility))
			} else {
				row = append(row, "")
				urow = append(urow, "")
			}
		}
		dur.Rows = append(dur.Rows, row)
		util.Rows = append(util.Rows, urow)
	}
	summary := Table{
		Title:  "Fig. 10 summary",
		Header: []string{"metric", "Self-aware", "Naive"},
		Rows: [][]string{
			{"search power over idle (%)", f1(r.SearchPowerPct), f1(r.SearchPowerPct)},
			{"mean search (ms)", f0(float64(r.SelfAware.MeanSearchTime.Milliseconds())), f0(float64(r.Naive.MeanSearchTime.Milliseconds()))},
			{"cumulative utility", f1(r.SelfAware.CumUtility), f1(r.Naive.CumUtility)},
			{"actions", f0(float64(r.SelfAware.TotalActions)), f0(float64(r.Naive.TotalActions))},
		},
	}
	return []Table{dur, util, summary}
}
