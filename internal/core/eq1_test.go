package core

import (
	"math"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/utility"
)

// TestEq1MatchesPerfRate holds the loaded form of Eq. 1 — the one the search's
// pricer and the Perf-Pwr scoring sum — to utility.AppParams.PerfRate bit for
// bit: flat and graded penalties, the paper's curves and custom ones, request
// rates through both of the curves' clamps, and response times at the target,
// one ulp to either side of it, and out past the gradient's cap at 4× the
// target.
func TestEq1MatchesPerfRate(t *testing.T) {
	e := newEnv(t, 4, 2)
	reward := func(rate float64) float64 { return 0.7 + rate*rate/311 }
	penalty := func(rate float64) float64 { return -1.9 - math.Sqrt(math.Abs(rate))/7 }
	util := &utility.Params{
		MonitoringInterval:       97 * time.Second,
		PowerCostPerWattInterval: 0.01,
		Apps: map[string]utility.AppParams{
			"flat":          {TargetRT: 400 * time.Millisecond},
			"graded":        {TargetRT: 333 * time.Millisecond, PenaltyGradient: 1.5},
			"custom":        {TargetRT: 250 * time.Millisecond, RewardAt: reward, PenaltyAt: penalty},
			"custom-graded": {TargetRT: 700 * time.Millisecond, RewardAt: reward, PenaltyAt: penalty, PenaltyGradient: 0.3},
		},
	}
	eval, err := NewEvaluator(e.cat, e.eval.model, util, e.eval.costs)
	if err != nil {
		t.Fatal(err)
	}
	interval := util.MonitoringInterval.Seconds()
	checked := 0
	for rate := -5.0; rate <= 120; rate += 0.7 {
		w := make(map[string]float64)
		for i, name := range eval.utilNames {
			w[name] = rate + 0.1*float64(i)
		}
		var q eq1
		q.load(eval, w)
		for i, name := range eval.utilNames {
			a := util.Apps[name]
			target := a.TargetRT.Seconds()
			for _, rt := range []float64{0, target / 3, math.Nextafter(target, 0), target, math.Nextafter(target, 1),
				1.01 * target, 2.5 * target, 3.99 * target, 4 * target, math.Nextafter(4*target, 9), 4.7 * target, 100} {
				got, want := q.perfRate(i, rt), a.PerfRate(interval, w[name], rt)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s at %v req/s, %v s: eq1 %v, PerfRate %v", name, w[name], rt, got, want)
				}
				checked++
			}
		}
	}
	if checked < 8000 {
		t.Errorf("checked %d points", checked)
	}
}
