package experiments

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"time"

	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/stats"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/workload"
)

// AblationRow is one variant of the replay ablation study: the recipe it
// ran and what came of it.
type AblationRow struct {
	Study, Label string
	Recipe       Recipe
	Utility      float64
	Actions      int
	MeanSearch   time.Duration
}

// ablationDuration keeps sweeps affordable while covering the first flash
// crowd (the interesting control regime).
const ablationDuration = 3 * time.Hour

// ablationStudies lists the replay ablations beyond the paper, each a
// variant of PaperRecipe(seed): the Self-Aware beam width (the paper keeps
// the top 5%; the cut keeps at least six children, so on the 2-app lab no
// fraction up to 10% differs from 5%); the 2nd-level band (the paper's 8
// req/s; narrow bands re-plan constantly, wide ones react late); the §VI
// DVFS extension; and the §VI WAN extension, the same cluster split across
// two data centers with each application pinned to a home zone and only the
// 3rd level moving VMs between zones. A variant at the paper's default
// leaves its field unset, so it is the base recipe itself.
func ablationStudies(seed uint64) []AblationRow {
	var out []AblationRow
	add := func(study, label string, vary func(*Recipe)) {
		rc := PaperRecipe(seed)
		vary(&rc)
		out = append(out, AblationRow{Study: study, Label: label, Recipe: rc})
	}
	for _, frac := range []float64{0.05, 0.20, 0.50} {
		add("prune fraction", fmt.Sprintf("%.0f%%", frac*100), func(rc *Recipe) {
			if frac != 0.05 {
				rc.Mistral.Search.PruneFraction = frac
			}
		})
	}
	for _, band := range []float64{2, 8, 16} {
		add("L2 band width", fmt.Sprintf("%.0freq/s", band), func(rc *Recipe) {
			if band != 8 {
				rc.Mistral.L2Band = band
			}
		})
	}
	add("DVFS extension", "no-dvfs", func(*Recipe) {})
	add("DVFS extension", "dvfs-60/80", func(rc *Recipe) { rc.Lab.DVFSLevels = []float64{0.6, 0.8} })
	add("multi-zone", "single-zone", func(*Recipe) {})
	add("multi-zone", "2-zones", func(rc *Recipe) { rc.Lab.Zones = 2 })
	return out
}

// Ablations replays every distinct recipe of ablationStudies over the
// scenario's first ablationDuration, in order; a row whose recipe an
// earlier row ran takes that row's result.
func Ablations(seed uint64) ([]AblationRow, error) {
	rows := ablationStudies(seed)
	for i := range rows {
		r := &rows[i]
		if j := slices.IndexFunc(rows[:i], func(p AblationRow) bool { return reflect.DeepEqual(p.Recipe, r.Recipe) }); j >= 0 {
			r.Utility, r.Actions, r.MeanSearch = rows[j].Utility, rows[j].Actions, rows[j].MeanSearch
			continue
		}
		rp, err := replay(r.Recipe, scenario.RunConfig{Duration: ablationDuration})
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation %s %s: %w", r.Study, r.Label, err)
		}
		res := rp.Engine.Result()
		r.Utility, r.Actions, r.MeanSearch = res.CumUtility, res.TotalActions, res.MeanSearchTime
	}
	return rows, nil
}

// ARMAAblationRow is one estimator variant's accuracy.
type ARMAAblationRow struct {
	Label    string
	ErrorPct float64
}

// AblationARMA compares the paper's adaptive-β stability-interval
// estimator against fixed-β exponential blends on the same measured
// interval series.
func AblationARMA(seed uint64) []ARMAAblationRow {
	tr := workload.WorldCup(seed, 0)
	measured := workload.StabilityIntervals(tr, 8, 2*time.Minute)

	evalPreds := func(preds []float64) float64 {
		var a, p []float64
		for i := 1; i < len(measured); i++ {
			a = append(a, measured[i].Seconds())
			p = append(p, preds[i])
		}
		return stats.NormMeanAbsError(a, p)
	}

	rows := []ARMAAblationRow{}

	// Adaptive β (the paper's §III-D estimator).
	{
		r := Fig6StabilityEstimation(seed)
		rows = append(rows, ARMAAblationRow{Label: "adaptive", ErrorPct: r.ErrorPct})
	}

	// Fixed-β blends of the last measurement and the 3-interval history.
	for _, beta := range []float64{0.2, 0.5, 0.8} {
		preds := make([]float64, len(measured))
		est := measured[0].Seconds()
		var hist []float64
		for i, m := range measured {
			preds[i] = est
			mv := m.Seconds()
			histMean := mv
			if len(hist) > 0 {
				lo := len(hist) - 3
				if lo < 0 {
					lo = 0
				}
				histMean = stats.Mean(hist[lo:])
			}
			est = (1-beta)*mv + beta*histMean
			hist = append(hist, mv)
		}
		rows = append(rows, ARMAAblationRow{
			Label:    fmt.Sprintf("beta=%.1f", beta),
			ErrorPct: evalPreds(preds),
		})
	}
	return rows
}

// FidelityResult compares the analytic and request-level testbeds
// measuring the same steady configuration.
type FidelityResult struct {
	AnalyticRTSec, RequestRTSec float64
	AnalyticWatts, RequestWatts float64
	RTGapPct, WattsGapPct       float64
}

// AblationFidelity measures the same configuration and workload in both
// testbed modes; a small gap certifies that the fast analytic mode used in
// the long replays agrees with the request-level ground truth.
func AblationFidelity(seed uint64) (*FidelityResult, error) {
	lab, err := NewLab(LabOptions{NumApps: 2, Seed: seed})
	if err != nil {
		return nil, err
	}
	rates := map[string]float64{"rubis1": 50, "rubis2": 50}
	measure := func(mode testbed.Mode) (float64, float64, error) {
		tb, err := testbed.New(lab.Cat, lab.Apps, lab.Initial, rates, lab.Costs, testbed.Options{
			Mode: mode, Seed: seed, RTNoise: -1, WattsNoise: -1,
		})
		if err != nil {
			return 0, 0, err
		}
		if _, err := tb.MeasureWindow(time.Minute); err != nil { // warm-up
			return 0, 0, err
		}
		w, err := tb.MeasureWindow(tb.Now() + 4*time.Minute)
		if err != nil {
			return 0, 0, err
		}
		return w.RTSec["rubis1"], w.Watts, nil
	}
	aRT, aW, err := measure(testbed.ModeAnalytic)
	if err != nil {
		return nil, err
	}
	rRT, rW, err := measure(testbed.ModeRequestLevel)
	if err != nil {
		return nil, err
	}
	return &FidelityResult{
		AnalyticRTSec: aRT, RequestRTSec: rRT,
		AnalyticWatts: aW, RequestWatts: rW,
		RTGapPct:    100 * math.Abs(aRT-rRT) / rRT,
		WattsGapPct: 100 * math.Abs(aW-rW) / rW,
	}, nil
}
