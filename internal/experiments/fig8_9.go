package experiments

import (
	"fmt"
	"time"

	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/workload"
)

// StrategyName identifies one of the four compared control strategies.
type StrategyName string

// The four strategies of §V-C.
const (
	StrategyPerfPwr  StrategyName = "Perf-Pwr"
	StrategyPerfCost StrategyName = "Perf-Cost"
	StrategyPwrCost  StrategyName = "Pwr-Cost"
	StrategyMistral  StrategyName = "Mistral"
)

// AllStrategies lists the comparison order used in the paper's figures.
func AllStrategies() []StrategyName {
	return []StrategyName{StrategyPerfPwr, StrategyPerfCost, StrategyPwrCost, StrategyMistral}
}

// replay builds rc and runs it to the end of run's duration (the whole
// scenario when run leaves it zero).
func replay(rc Recipe, run scenario.RunConfig) (*Replay, error) {
	rp, err := rc.Build(run)
	if err != nil {
		return nil, err
	}
	if _, err := rp.Engine.Run(); err != nil {
		return nil, err
	}
	return rp, nil
}

// Fig89Result is the four-strategy comparison of Figures 8 and 9: response
// times and power per strategy over the scenario, plus cumulative
// utilities.
type Fig89Result struct {
	Results map[StrategyName]*scenario.Result
}

// Fig89StrategyComparison reproduces Figures 8 and 9: the 2-application
// scenario (RUBiS-1 and RUBiS-2 on the World Cup workloads) replayed under
// Perf-Pwr, Perf-Cost, Pwr-Cost, and Mistral. The paper's headline is the
// cumulative utility ordering: Mistral (152.3) > Pwr-Cost (93.9) >
// Perf-Cost (26.3) > Perf-Pwr (−47.1).
func Fig89StrategyComparison(seed uint64) (*Fig89Result, error) {
	res := &Fig89Result{Results: make(map[StrategyName]*scenario.Result, 4)}
	for _, name := range AllStrategies() {
		rc := PaperRecipe(seed)
		rc.Strategy = string(name)
		rp, err := replay(rc, scenario.RunConfig{})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		res.Results[name] = rp.Engine.Result()
	}
	return res, nil
}

// CumUtility returns the final cumulative utility per strategy.
func (r *Fig89Result) CumUtility() map[StrategyName]float64 {
	out := make(map[StrategyName]float64, len(r.Results))
	for name, res := range r.Results {
		out[name] = res.CumUtility
	}
	return out
}

// Tables renders the Fig. 8 series (RT per app, power) and Fig. 9
// (cumulative utility).
func (r *Fig89Result) Tables() []Table {
	order := AllStrategies()
	mkHeader := func() []string {
		h := []string{"time"}
		for _, s := range order {
			h = append(h, string(s))
		}
		return h
	}
	rt1 := Table{Title: "Fig. 8a — RUBiS-1 mean response time (ms)", Header: mkHeader()}
	rt2 := Table{Title: "Fig. 8b — RUBiS-2 mean response time (ms)", Header: mkHeader()}
	pwr := Table{Title: "Fig. 8c — System power (W)", Header: mkHeader()}
	cum := Table{Title: "Fig. 9 — Cumulative utility (dollars)", Header: mkHeader()}

	n := 0
	for _, res := range r.Results {
		if len(res.Windows) > n {
			n = len(res.Windows)
		}
	}
	for i := 0; i < n; i++ {
		var at time.Duration
		for _, res := range r.Results {
			if i < len(res.Windows) {
				at = res.Windows[i].Time
			}
		}
		rows := [][]string{
			{workload.Clock(at)}, {workload.Clock(at)}, {workload.Clock(at)}, {workload.Clock(at)},
		}
		for _, s := range order {
			res := r.Results[s]
			if i >= len(res.Windows) {
				for j := range rows {
					rows[j] = append(rows[j], "")
				}
				continue
			}
			w := res.Windows[i]
			rows[0] = append(rows[0], f0(w.RTSec["rubis1"]*1000))
			rows[1] = append(rows[1], f0(w.RTSec["rubis2"]*1000))
			rows[2] = append(rows[2], f0(w.Watts))
			rows[3] = append(rows[3], f1(w.CumUtility))
		}
		rt1.Rows = append(rt1.Rows, rows[0])
		rt2.Rows = append(rt2.Rows, rows[1])
		pwr.Rows = append(pwr.Rows, rows[2])
		cum.Rows = append(cum.Rows, rows[3])
	}

	summary := Table{
		Title:  "Fig. 9 summary — final cumulative utility (paper: Mistral 152.3, Pwr-Cost 93.9, Perf-Cost 26.3, Perf-Pwr -47.1)",
		Header: []string{"strategy", "cum. utility", "actions", "violations", "mean watts"},
	}
	for _, s := range order {
		res := r.Results[s]
		summary.Rows = append(summary.Rows, []string{
			string(s), f1(res.CumUtility), fmt.Sprint(res.TotalActions), fmt.Sprint(res.TargetViolations), f0(res.MeanWatts()),
		})
	}
	return []Table{rt1, rt2, pwr, cum, summary}
}
