package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/stats"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/workload"
)

// AblationRow is one configuration's outcome in a design-choice sweep.
type AblationRow struct {
	Label      string
	Utility    float64
	Actions    int
	MeanSearch time.Duration
}

// ablationDuration keeps sweeps affordable while covering the first flash
// crowd (the interesting control regime).
const ablationDuration = 3 * time.Hour

// ablationRow replays the shortened scenario under Mistral on lab with the
// search and hierarchy of mc.
func ablationRow(label string, lab LabOptions, mc strategy.MistralConfig) (AblationRow, error) {
	rp, err := replay(Recipe{Lab: lab, Strategy: "mistral"}, mc, scenario.RunConfig{Duration: ablationDuration})
	if err != nil {
		return AblationRow{}, fmt.Errorf("experiments: ablation %s: %w", label, err)
	}
	res := rp.Engine.Result()
	return AblationRow{Label: label, Utility: res.CumUtility, Actions: res.TotalActions, MeanSearch: res.MeanSearchTime}, nil
}

// AblationPruneFraction sweeps the Self-Aware beam width (the paper fixes
// it at the top 5%).
func AblationPruneFraction(seed uint64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, frac := range []float64{0.01, 0.05, 0.20} {
		mc := paperMistral()
		mc.Search.PruneFraction = frac
		row, err := ablationRow(fmt.Sprintf("%.0f%%", frac*100), LabOptions{NumApps: 2, Seed: seed}, mc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationBandWidth sweeps the 2nd-level workload band (the paper uses
// 8 req/s): narrow bands re-plan constantly, wide bands react late.
func AblationBandWidth(seed uint64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, band := range []float64{2, 8, 16} {
		mc := paperMistral()
		mc.L2Band = band
		row, err := ablationRow(fmt.Sprintf("%.0freq/s", band), LabOptions{NumApps: 2, Seed: seed}, mc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
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

// AblationDVFS contrasts Mistral with and without the §VI DVFS extension:
// hosts that can downclock shave watts during quiet phases without
// migrations or power cycling.
func AblationDVFS(seed uint64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, levels := range [][]float64{nil, {0.6, 0.8}} {
		label := "no-dvfs"
		if levels != nil {
			label = "dvfs-60/80"
		}
		row, err := ablationRow(label, LabOptions{NumApps: 2, Seed: seed, DVFSLevels: levels}, paperMistral())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationMultiZone quantifies the structural cost of splitting the same
// cluster across data centers (the §VI WAN extension): each application is
// pinned to a home zone, cross-zone traffic pays WAN latency, and only the
// 3rd hierarchy level may move VMs between zones — so flash crowds that a
// single-zone cluster absorbs by borrowing any host cost real utility.
func AblationMultiZone(seed uint64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, zones := range []int{1, 2} {
		label := "single-zone"
		if zones > 1 {
			label = fmt.Sprintf("%d-zones", zones)
		}
		row, err := ablationRow(label, LabOptions{NumApps: 2, Seed: seed, Zones: zones}, paperMistral())
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
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
