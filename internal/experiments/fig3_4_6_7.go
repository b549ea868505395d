package experiments

import (
	"fmt"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/predict"
	"github.com/mistralcloud/mistral/internal/stats"
	"github.com/mistralcloud/mistral/internal/utility"
	"github.com/mistralcloud/mistral/internal/workload"
)

// Fig3Point is one sample of the performance utility function.
type Fig3Point struct {
	Rate    float64
	Reward  float64
	Penalty float64
}

// Fig3UtilityFunction reproduces Figure 3: the reward and penalty per
// monitoring period as functions of the request rate.
func Fig3UtilityFunction() []Fig3Point {
	points := make([]Fig3Point, 0, 21)
	for rate := 0.0; rate <= 100; rate += 5 {
		points = append(points, Fig3Point{
			Rate:    rate,
			Reward:  utility.PaperReward(rate),
			Penalty: utility.PaperPenalty(rate),
		})
	}
	return points
}

// Fig3Table renders Figure 3.
func Fig3Table(points []Fig3Point) Table {
	t := Table{
		Title:  "Fig. 3 — Performance utility function (dollars per monitoring period)",
		Header: []string{"req/s", "reward", "penalty"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{f0(p.Rate), f(p.Reward), f(p.Penalty)})
	}
	return t
}

// Fig4Result is the four scaled application workloads.
type Fig4Result struct {
	Step  time.Duration
	Names []string
	Times []time.Duration
	Rates map[string][]float64
}

// Fig4Workloads reproduces Figure 4: the four application workloads
// (RUBiS-1/2 from the World Cup shape, RUBiS-3/4 from the HP shape) scaled
// to 0–100 req/s over 15:00–21:30, sampled every 10 minutes as the figure
// ticks.
func Fig4Workloads(seed uint64) *Fig4Result {
	names := []string{"rubis1", "rubis2", "rubis3", "rubis4"}
	set := workload.PaperWorkloads(seed, names)
	res := &Fig4Result{
		Step:  10 * time.Minute,
		Names: names,
		Rates: make(map[string][]float64, len(names)),
	}
	for t := time.Duration(0); t <= workload.ScenarioDuration; t += res.Step {
		res.Times = append(res.Times, t)
		for _, n := range names {
			res.Rates[n] = append(res.Rates[n], set[n].RateAt(t))
		}
	}
	return res
}

// Table renders Figure 4.
func (r *Fig4Result) Table() Table {
	t := Table{
		Title:  "Fig. 4 — Application workloads (req/s), 15:00–21:30",
		Header: append([]string{"time"}, r.Names...),
	}
	for i, at := range r.Times {
		row := []string{workload.Clock(at)}
		for _, n := range r.Names {
			row = append(row, f1(r.Rates[n][i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig6Result compares measured stability intervals against the ARMA
// estimator's predictions.
type Fig6Result struct {
	// MeasuredMS and EstimatedMS are RUBiS-1's series, the one the figure
	// plots.
	MeasuredMS  []float64
	EstimatedMS []float64
	// ErrorPct is RUBiS-1's normalized mean absolute error (the paper
	// reports ≈14% on its testbed traces).
	ErrorPct float64
	// Apps summarises every paper application, RUBiS-1 first.
	Apps []Fig6App
}

// Fig6App is one application's stability intervals and the ARMA
// estimator's normalized mean absolute error over them.
type Fig6App struct {
	Name           string
	Intervals      int
	Min, Mean, Max time.Duration
	ErrorPct       float64
}

// Fig6StabilityEstimation reproduces Figure 6: replaying each paper
// workload's stability intervals (8 req/s band, sampled at the 2-minute
// monitoring interval) through the adaptive ARMA estimator of §III-D. The
// figure's series is RUBiS-1's.
func Fig6StabilityEstimation(seed uint64) *Fig6Result {
	names := []string{"rubis1", "rubis2", "rubis3", "rubis4"}
	set := workload.PaperWorkloads(seed, names)
	res := &Fig6Result{}
	for i, name := range names {
		measured := workload.StabilityIntervals(set[name], 8, 2*time.Minute)
		preds := predict.Replay(predict.NewEstimator(0, 0, measured[0]), measured)
		app := Fig6App{Name: name, Intervals: len(measured), Min: measured[0], Max: measured[0]}
		var sum time.Duration
		var a, p []float64
		for j, m := range measured {
			if i == 0 {
				res.MeasuredMS = append(res.MeasuredMS, float64(m.Milliseconds()))
				res.EstimatedMS = append(res.EstimatedMS, float64(preds[j].Milliseconds()))
			}
			sum += m
			app.Min, app.Max = min(app.Min, m), max(app.Max, m)
			if j > 0 { // the first prediction is just the seed
				a = append(a, m.Seconds())
				p = append(p, preds[j].Seconds())
			}
		}
		app.Mean = sum / time.Duration(len(measured))
		app.ErrorPct = stats.NormMeanAbsError(a, p)
		res.Apps = append(res.Apps, app)
	}
	res.ErrorPct = res.Apps[0].ErrorPct
	return res
}

// Tables renders Figure 6's series and the per-application summary.
func (r *Fig6Result) Tables() []Table {
	series := Table{
		Title:  fmt.Sprintf("Fig. 6 — Stability interval estimation (normalized mean abs error %.1f%%)", r.ErrorPct),
		Header: []string{"window", "measured(ms)", "model(ms)"},
	}
	for i := range r.MeasuredMS {
		series.Rows = append(series.Rows, []string{fmt.Sprint(i + 1), f0(r.MeasuredMS[i]), f0(r.EstimatedMS[i])})
	}
	apps := Table{
		Title:  "Fig. 6 — Stability intervals per application (8 req/s band, 2 min sampling)",
		Header: []string{"app", "intervals", "min", "mean", "max", "ARMA error(%)"},
	}
	for _, a := range r.Apps {
		apps.Rows = append(apps.Rows, []string{a.Name, fmt.Sprint(a.Intervals),
			a.Min.String(), a.Mean.Round(time.Second).String(), a.Max.String(), f1(a.ErrorPct)})
	}
	return []Table{series, apps}
}

// Fig7Row is one adaptation-cost table entry.
type Fig7Row struct {
	Action       string
	Sessions     float64
	DeltaWattPct float64
	DeltaRTMS    float64
	DelayMS      float64
}

// Fig7AdaptationCosts reproduces Figure 7: the offline-measured adaptation
// cost tables — power delta (as % of the affected two-host baseline),
// response-time delta, and adaptation delay versus concurrent sessions for
// migrations of each tier and db replica addition/removal.
func Fig7AdaptationCosts() []Fig7Row {
	tbl := cost.PaperTable()
	const baselineWatts = 160.0
	families := []struct {
		label string
		key   cost.Key
	}{
		{"Migration (MySQL)", cost.Key{Kind: cluster.ActionMigrate, Tier: "db"}},
		{"Migration (Tomcat)", cost.Key{Kind: cluster.ActionMigrate, Tier: "app"}},
		{"Migration (Apache)", cost.Key{Kind: cluster.ActionMigrate, Tier: "web"}},
		{"Add replica (MySQL)", cost.Key{Kind: cluster.ActionAddReplica, Tier: "db"}},
		{"Remove replica (MySQL)", cost.Key{Kind: cluster.ActionRemoveReplica, Tier: "db"}},
	}
	var rows []Fig7Row
	for _, fam := range families {
		for _, e := range tbl.Entries(fam.key) {
			rows = append(rows, Fig7Row{
				Action:       fam.label,
				Sessions:     e.Sessions,
				DeltaWattPct: e.DeltaWatts / baselineWatts * 100,
				DeltaRTMS:    e.DeltaRTTargetSec * 1000,
				DelayMS:      float64(e.Duration.Milliseconds()),
			})
		}
	}
	return rows
}

// Fig7Table renders Figure 7.
func Fig7Table(rows []Fig7Row) Table {
	t := Table{
		Title:  "Fig. 7 — Adaptation costs vs concurrent sessions",
		Header: []string{"action", "sessions", "dWatt(%)", "dRT(ms)", "delay(ms)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Action, f0(r.Sessions), f1(r.DeltaWattPct), f0(r.DeltaRTMS), f0(r.DelayMS)})
	}
	return t
}
