// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V). Each benchmark runs the corresponding experiment end to end and
// reports the headline quantities as custom metrics, so
//
//	go test -bench . -benchmem
//
// doubles as the reproduction harness. Wall-clock costs vary from
// milliseconds (Fig. 3) to minutes (Fig. 8–10, Table I); use
// -bench 'Fig[1-7]' for the quick subset.
package mistral_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
)

const benchSeed = 42

// benchRegistry installs a process-default metrics registry for the
// benchmark's duration and returns it, so searches and evaluators
// constructed inside the experiment record into it.
func benchRegistry(b *testing.B) *obs.Registry {
	b.Helper()
	reg := obs.NewRegistry()
	obs.SetDefault(&obs.Observer{Metrics: reg})
	b.Cleanup(func() { obs.SetDefault(nil) })
	return reg
}

// reportSearchMetrics derives expansions/s and the evaluator cache hit rate
// from the registry accumulated over the benchmark run.
func reportSearchMetrics(b *testing.B, reg *obs.Registry) {
	b.Helper()
	exp := float64(reg.CounterValue("search_expansions_total"))
	if h := reg.Histogram("search_time_ms", nil).Snapshot(); h.Sum > 0 {
		b.ReportMetric(exp/(h.Sum/1000), "expansions/s")
	}
	hits := float64(reg.CounterValue("eval_cache_hits_total"))
	misses := float64(reg.CounterValue("eval_cache_misses_total"))
	if hits+misses > 0 {
		b.ReportMetric(100*hits/(hits+misses), "cache_hit_%")
	}
}

// BenchmarkFig1MigrationCost regenerates Fig. 1: power and response-time
// transients of a single live migration at 100/400/800 concurrent
// sessions on the request-level testbed.
func BenchmarkFig1MigrationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1MigrationCost(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last := r.Series[len(r.Series)-1]
		b.ReportMetric(last.PeakDeltaWattPct(), "peakΔwatt%@800")
		b.ReportMetric(last.PeakDeltaRTPct(), "peakΔrt%@800")
	}
}

// BenchmarkFig3UtilityFunction regenerates Fig. 3's reward/penalty curves.
func BenchmarkFig3UtilityFunction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := experiments.Fig3UtilityFunction()
		b.ReportMetric(points[len(points)-1].Reward, "reward@100")
		b.ReportMetric(points[0].Penalty, "penalty@0")
	}
}

// BenchmarkFig4Workloads regenerates Fig. 4's four application workloads.
func BenchmarkFig4Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4Workloads(benchSeed)
		var peak float64
		for _, rates := range r.Rates {
			for _, v := range rates {
				if v > peak {
					peak = v
				}
			}
		}
		b.ReportMetric(peak, "peak_req/s")
	}
}

// BenchmarkFig5ModelAccuracy regenerates Fig. 5: LQN/power-model
// predictions against request-level measurements during the flash crowd
// (the paper reports ≈5% error).
func BenchmarkFig5ModelAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5ModelAccuracy(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RTErrPct, "rt_err%")
		b.ReportMetric(r.UtilErrPct, "util_err%")
		b.ReportMetric(r.WattsErrPct, "watts_err%")
	}
}

// BenchmarkFig6StabilityEstimation regenerates Fig. 6: the adaptive ARMA
// estimator against measured stability intervals.
func BenchmarkFig6StabilityEstimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6StabilityEstimation(benchSeed)
		b.ReportMetric(r.ErrorPct, "nmae%")
		b.ReportMetric(float64(len(r.MeasuredMS)), "intervals")
	}
}

// BenchmarkFig7AdaptationCosts regenerates Fig. 7's cost tables.
func BenchmarkFig7AdaptationCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7AdaptationCosts()
		var peak float64
		for _, r := range rows {
			if r.DelayMS > peak {
				peak = r.DelayMS
			}
		}
		b.ReportMetric(peak, "max_delay_ms")
	}
}

// BenchmarkFig7MeasuredCampaign reruns the §III-C offline measurement
// campaign on the request-level testbed (the measured counterpart of the
// Fig. 7 tables).
func BenchmarkFig7MeasuredCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7MeasuredCampaign(benchSeed, 1)
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rows {
			if r.DeltaRTMS > worst {
				worst = r.DeltaRTMS
			}
		}
		b.ReportMetric(worst, "max_Δrt_ms")
	}
}

// BenchmarkFig8StrategyComparison and BenchmarkFig9CumulativeUtility share
// the same replay: the 2-application day under all four strategies. Fig. 8
// reports response-time/power series quality; Fig. 9 the cumulative
// utility ordering (paper: Mistral 152.3 > Pwr-Cost 93.9 > Perf-Cost 26.3
// > Perf-Pwr −47.1).
func BenchmarkFig8StrategyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig89StrategyComparison(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		res := r.Results[experiments.StrategyMistral]
		b.ReportMetric(float64(res.TargetViolations), "mistral_violations")
		b.ReportMetric(float64(res.TotalActions), "mistral_actions")
	}
}

// BenchmarkFig9CumulativeUtility reports the cumulative utilities of the
// four strategies.
func BenchmarkFig9CumulativeUtility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig89StrategyComparison(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		cum := r.CumUtility()
		b.ReportMetric(cum[experiments.StrategyMistral], "mistral_$")
		b.ReportMetric(cum[experiments.StrategyPwrCost], "pwrcost_$")
		b.ReportMetric(cum[experiments.StrategyPerfCost], "perfcost_$")
		b.ReportMetric(cum[experiments.StrategyPerfPwr], "perfpwr_$")
	}
}

// BenchmarkFig10SearchCost regenerates Fig. 10: the decision procedure's
// own power and duration, naive vs Self-Aware (paper: ≈24 s vs ≈5.5 s,
// utilities 135.3 vs 152.3).
func BenchmarkFig10SearchCost(b *testing.B) {
	reg := benchRegistry(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10SearchCost(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		aware, naive := r.MeanSearch()
		b.ReportMetric(aware.Seconds(), "aware_search_s")
		b.ReportMetric(naive.Seconds(), "naive_search_s")
		b.ReportMetric(r.SelfAware.CumUtility, "aware_$")
		b.ReportMetric(r.Naive.CumUtility, "naive_$")
	}
	reportSearchMetrics(b, reg)
}

// BenchmarkPerfPwr measures one cold Perf-Pwr ideal (§IV-A) on the paper's
// two labs: the serial host-count sweep from an empty evaluator cache, the
// way a control window with a new workload band pays for it. candidates/op
// is the number of configurations scored (cache lookups); allocs/op over it
// is the per-candidate garbage the ceiling test in internal/core bounds.
func BenchmarkPerfPwr(b *testing.B) {
	for _, apps := range []int{2, 4} {
		b.Run(fmt.Sprintf("%dapps", apps), func(b *testing.B) {
			lab, err := experiments.NewLab(experiments.LabOptions{NumApps: apps, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			eval, err := lab.NewEvaluator()
			if err != nil {
				b.Fatal(err)
			}
			rates := lab.Traces.At(90 * time.Minute)
			var ideal core.Ideal
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval.BeginWindow()
				if ideal, err = core.PerfPwr(eval, rates, core.PerfPwrOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := eval.CacheStats()
			b.ReportMetric(float64(st.Hits+st.Misses), "candidates/op")
			b.ReportMetric(ideal.Steady.NetRate(), "ideal_$/s")
		})
	}
}

// BenchmarkTable1Scalability regenerates Table I over 2/3/4 applications
// on the full 6.5 h day (the naive searches are capped for tractability).
func BenchmarkTable1Scalability(b *testing.B) {
	reg := benchRegistry(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1Scalability(benchSeed, experiments.Table1Options{})
		if err != nil {
			b.Fatal(err)
		}
		first := r.Scenarios[0]
		last := r.Scenarios[len(r.Scenarios)-1]
		b.ReportMetric(first.SelfAwareMean.Seconds(), "aware_s_2app")
		b.ReportMetric(last.SelfAwareMean.Seconds(), "aware_s_4app")
		b.ReportMetric(first.NaiveMean.Seconds(), "naive_s_2app")
		b.ReportMetric(last.NaiveMean.Seconds(), "naive_s_4app")
	}
	reportSearchMetrics(b, reg)
}

// Ablation benches beyond the paper (see DESIGN.md §6).

// BenchmarkAblations replays the ablation study list: beam width, L2 band,
// DVFS and multi-zone variants of the paper's base recipe.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.ReportMetric(row.Utility, "util@"+row.Label)
		}
	}
}

// BenchmarkAblationARMA compares the adaptive-β estimator against fixed-β
// variants on the stability-interval series.
func BenchmarkAblationARMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationARMA(benchSeed)
		for _, row := range rows {
			b.ReportMetric(row.ErrorPct, "nmae%@"+row.Label)
		}
	}
}

// BenchmarkFaultSweep replays the robustness study beyond the paper: the
// four strategies under seeded fault injection at 0/15/30% action-failure
// rates. The reported metrics track how much utility Mistral preserves as
// the environment turns hostile, and how much degradation bookkeeping the
// control loop absorbed without aborting.
func BenchmarkFaultSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.FaultSweep(experiments.PaperRecipe(benchSeed), experiments.SweepOptions{
			Rates:    []float64{0, 0.15, 0.30},
			Duration: 2 * time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		clean := r.CumUtility(0)
		hostile := r.CumUtility(len(r.Rates) - 1)
		b.ReportMetric(clean[experiments.StrategyMistral], "mistral_clean_$")
		b.ReportMetric(hostile[experiments.StrategyMistral], "mistral_30%_$")
		b.ReportMetric(hostile[experiments.StrategyPerfPwr], "perfpwr_30%_$")
		cells := r.Cells[experiments.StrategyMistral]
		worst := cells[len(cells)-1].Result
		b.ReportMetric(float64(worst.DegradedWindows), "mistral_30%_degraded")
		b.ReportMetric(float64(worst.Retries), "mistral_30%_retries")
	}
}

// BenchmarkAblationFidelity compares analytic and request-level testbed
// measurements of the same steady configuration.
func BenchmarkAblationFidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationFidelity(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RTGapPct, "rt_gap%")
		b.ReportMetric(r.WattsGapPct, "watts_gap%")
	}
}
