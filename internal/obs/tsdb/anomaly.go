package tsdb

import "sort"

// Anomaly detection runs online, once per window, over the history store.
//
// Two regimes, matched to the two series classes:
//
//   - Virtual series (deterministic at a fixed seed) are scored with
//     a rolling median/MAD z-score over the trailing raw window. The
//     scoring is stateless — it reads the store's retained samples — so a
//     restored daemon flags exactly the anomalies an uninterrupted one
//     would, and the verdicts themselves are deterministic and safe to
//     feed into the SLO engine.
//   - Wall-clock series (decide latency) are scored with an EWMA
//     mean/variance drift detector. Those verdicts depend on the machine
//     the process runs on, so they are surfaced as warnings and counters
//     only, never folded into deterministic state.
const (
	// trailing is how many prior samples form the robust baseline.
	trailing = 32
	// minSamples is the minimum baseline size before scoring: below it
	// every window is "anomalous vs nothing".
	minSamples = 12
	// zThreshold is the |robust z| above which a virtual sample is
	// anomalous (MAD z-scores are tight, so this is a loud signal, not a
	// tuning knob).
	zThreshold = 6
	// alpha is the EWMA smoothing factor for wall series.
	alpha = 0.1
	// driftThreshold is the |sample − ewma| / stddev ratio above which a
	// wall sample is drifting.
	driftThreshold = 8
	// minWallMS floors the wall-series deviation: sub-floor jitter on a
	// fast machine is noise, not drift.
	minWallMS = 5
)

// Anomaly is one flagged observation.
type Anomaly struct {
	Series string `json:"series"`
	Window int    `json:"window"`
	// Kind is "mad-z" for virtual series, "ewma-drift" for wall series.
	Kind     string  `json:"kind"`
	Value    float64 `json:"value"`
	Score    float64 `json:"score"`
	Baseline float64 `json:"baseline"`
}

// EWMAState is one wall series' running estimate. It is persisted through
// checkpoints so a restarted daemon's drift baseline does not reset to
// cold (which would re-arm the MinSamples grace and hide a slow machine).
type EWMAState struct {
	Mean float64 `json:"mean"`
	Var  float64 `json:"var"`
	N    int     `json:"n"`
}

// DetectorState is the detector's persistable state. Only the EWMA
// estimates need carrying: the MAD path is stateless over the store.
type DetectorState struct {
	EWMA map[string]EWMAState `json:"ewma,omitempty"`
}

// Detector scores samples against history. It is driven by the engine's
// single-threaded step loop and needs no locking of its own.
type Detector struct {
	ewma map[string]*EWMAState
}

// NewDetector builds a detector.
func NewDetector() *Detector {
	return &Detector{ewma: make(map[string]*EWMAState)}
}

// ScoreVirtual scores one virtual-series sample against its trailing
// baseline (read from the store, windows strictly before the sample's).
// It returns a non-nil Anomaly when the robust z-score breaches the
// threshold. A zero MAD (flat baseline) yields no verdict rather than an
// infinite score: flag-like series that sit at 0 forever must not page on
// their first nonzero window via division by zero — the caller chooses
// which series are worth monitoring.
func (d *Detector) ScoreVirtual(s *Store, name string, window int, value float64) *Anomaly {
	if d == nil {
		return nil
	}
	base := s.TrailingBefore(name, window, trailing)
	if len(base) < minSamples {
		return nil
	}
	med := median(base)
	dev := make([]float64, len(base))
	for i, v := range base {
		dev[i] = abs(v - med)
	}
	mad := median(dev)
	if mad == 0 {
		return nil
	}
	// 0.6745 ≈ Φ⁻¹(3/4): scales MAD to the stddev of a normal
	// distribution, making ZThreshold comparable to a plain z-score.
	z := 0.6745 * (value - med) / mad
	if abs(z) < zThreshold {
		return nil
	}
	return &Anomaly{Series: name, Window: window, Kind: "mad-z", Value: value, Score: z, Baseline: med}
}

// ScoreWall folds one wall-clock sample into the series' EWMA estimate and
// returns a non-nil Anomaly when the sample drifts past the threshold.
// The sample is folded whether or not it is flagged, so a sustained shift
// becomes the new baseline instead of paging forever.
func (d *Detector) ScoreWall(name string, window int, value float64) *Anomaly {
	if d == nil {
		return nil
	}
	st := d.ewma[name]
	if st == nil {
		st = &EWMAState{}
		d.ewma[name] = st
	}
	var out *Anomaly
	if st.N >= minSamples {
		dev := abs(value - st.Mean)
		sd := sqrt(st.Var)
		if sd < minWallMS {
			sd = minWallMS
		}
		if score := dev / sd; score >= driftThreshold {
			out = &Anomaly{Series: name, Window: window, Kind: "ewma-drift", Value: value, Score: score, Baseline: st.Mean}
		}
	}
	if st.N == 0 {
		st.Mean = value
	} else {
		delta := value - st.Mean
		st.Mean += alpha * delta
		st.Var = (1 - alpha) * (st.Var + alpha*delta*delta)
	}
	st.N++
	return out
}

// State captures the detector's persistable state; nil detector → nil.
func (d *Detector) State() *DetectorState {
	if d == nil || len(d.ewma) == 0 {
		return nil
	}
	out := &DetectorState{EWMA: make(map[string]EWMAState, len(d.ewma))}
	for name, st := range d.ewma {
		out.EWMA[name] = *st
	}
	return out
}

// Restore overwrites the detector's EWMA estimates; nil state resets.
func (d *Detector) Restore(st *DetectorState) {
	if d == nil {
		return
	}
	d.ewma = make(map[string]*EWMAState)
	if st == nil {
		return
	}
	for name, e := range st.EWMA {
		cp := e
		d.ewma[name] = &cp
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// sqrt is Newton's method on float64 — keeps the package free of even a
// math import so its determinism surface is arithmetic we fully control.
func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 64; i++ {
		nx := (x + v/x) / 2
		if nx == x {
			break
		}
		x = nx
	}
	return x
}
