// Package predict implements the workload predictor of §III-D: an
// auto-regressive moving-average (ARMA) estimator of the next stability
// interval — how long the workload will stay inside its current workload
// band — with an adaptive mixing weight β driven by recent estimation
// error.
//
// On each completed stability interval measurement CWᵐⱼ the estimator
// produces
//
//	CWᵉⱼ₊₁ = (1−β)·CWᵐⱼ + β·(1/k)·Σᵢ₌₁..k CWᵐⱼ₋ᵢ
//
// where β is derived from the error history: with
//
//	εⱼ = (1−γ)·|CWᵉⱼ − CWᵐⱼ| + γ·(1/k)·Σᵢ₌₁..k εⱼ₋ᵢ
//
// the weight is β = 1 − εⱼ / maxᵢ₌₀..k εⱼ₋ᵢ. When the current estimate
// tracks measurements closely, β is small and the estimator trusts the
// latest measurement; when the estimate has been erratic, β grows and the
// estimator leans on history. The paper uses k = 3 and γ = 0.5.
package predict

import (
	"math"
	"time"

	"github.com/mistralcloud/mistral/internal/stats"
)

// Defaults from §III-D.
const (
	DefaultHistory = 3
	DefaultGamma   = 0.5
)

// Estimator predicts stability intervals. Construct with NewEstimator.
// It is not safe for concurrent use.
type Estimator struct {
	k     int
	gamma float64

	measured []float64 // most recent k measurements, newest last (seconds)
	errors   []float64 // most recent k+1 error values, newest last
	estimate float64   // current prediction for the next interval (seconds)
	beta     float64   // β used for the current prediction
	seeded   bool
}

// NewEstimator returns an estimator with history window k and error blend
// γ; non-positive arguments select the paper's defaults (k=3, γ=0.5).
// initial seeds the first prediction before any measurement is observed.
func NewEstimator(k int, gamma float64, initial time.Duration) *Estimator {
	if k <= 0 {
		k = DefaultHistory
	}
	if gamma <= 0 || gamma >= 1 {
		gamma = DefaultGamma
	}
	return &Estimator{
		k:        k,
		gamma:    gamma,
		estimate: initial.Seconds(),
	}
}

// Predict returns the current estimate of the next stability interval.
func (e *Estimator) Predict() time.Duration {
	return time.Duration(e.estimate * float64(time.Second))
}

// LastBeta returns the β used to produce the current prediction; zero until
// enough history exists.
func (e *Estimator) LastBeta() float64 { return e.beta }

// PersistState is the estimator's complete mutable state in serializable
// form, used by checkpoint/restore and read by decision provenance. It
// carries everything Observe folds into — the histories (seconds, newest
// last), the current estimate and β, and whether a first measurement has
// seeded the error term. The construction parameters k and γ are not
// included — an estimator is restored into a freshly constructed instance
// with the same options.
type PersistState struct {
	Measured []float64 `json:"measured,omitempty"`
	Errors   []float64 `json:"errors,omitempty"`
	Estimate float64   `json:"estimate"`
	Beta     float64   `json:"beta"`
	Seeded   bool      `json:"seeded"`
}

// Persist captures the estimator's complete mutable state.
func (e *Estimator) Persist() PersistState {
	return PersistState{
		Measured: append([]float64(nil), e.measured...),
		Errors:   append([]float64(nil), e.errors...),
		Estimate: e.estimate,
		Beta:     e.beta,
		Seeded:   e.seeded,
	}
}

// Restore overwrites the estimator's mutable state with a captured one;
// subsequent Observe calls continue the sequence exactly as if the
// original estimator had kept running.
func (e *Estimator) Restore(s PersistState) {
	e.measured = append([]float64(nil), s.Measured...)
	e.errors = append([]float64(nil), s.Errors...)
	e.estimate = s.Estimate
	e.beta = s.Beta
	e.seeded = s.Seeded
}

// maxIntervalSec clamps measurements and estimates: a stability interval
// longer than 30 days is a unit artifact (divergent rates, duration
// overflow), not workload information.
const maxIntervalSec = 30 * 24 * 3600

// Observe feeds a completed stability interval measurement and updates the
// prediction for the next one. It returns the new prediction.
func (e *Estimator) Observe(measured time.Duration) time.Duration {
	e.ObserveSeconds(measured.Seconds())
	return e.Predict()
}

// ObserveSeconds is Observe on raw seconds, guarded against the non-finite
// and divergent values noisy measurement pipelines produce: NaN/±Inf inputs
// are treated as missing samples (the estimate is returned unchanged),
// negatives clamp to zero, and absurdly long intervals clamp to 30 days.
// The update itself is then re-checked — if the blend ever produced a
// non-finite estimate it falls back to the clamped measurement, so one bad
// window can never poison every later control-window prediction. It
// returns the new estimate in seconds.
func (e *Estimator) ObserveSeconds(m float64) float64 {
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return e.estimate
	}
	if m < 0 {
		m = 0
	}
	if m > maxIntervalSec {
		m = maxIntervalSec
	}

	// Error of the prediction that was in force for this interval.
	var histErr float64
	if len(e.errors) > 0 {
		histErr = stats.Mean(lastN(e.errors, e.k))
	}
	var cur float64
	if e.seeded {
		cur = abs(e.estimate - m)
	}
	errJ := (1-e.gamma)*cur + e.gamma*histErr

	// β = 1 − εⱼ / max(εⱼ, εⱼ₋₁, ..., εⱼ₋ₖ); a zero maximum (perfect
	// tracking) yields β = 0, trusting the newest measurement entirely.
	maxErr := errJ
	for _, v := range lastN(e.errors, e.k) {
		if v > maxErr {
			maxErr = v
		}
	}
	b := 0.0
	if maxErr > 0 {
		b = 1 - errJ/maxErr
	}
	e.beta = b

	// History average over the k measurements before this one.
	histMean := m
	if hist := lastN(e.measured, e.k); len(hist) > 0 {
		histMean = stats.Mean(hist)
	}

	e.estimate = (1-b)*m + b*histMean
	if math.IsNaN(e.estimate) || math.IsInf(e.estimate, 0) {
		// The blend itself went non-finite (poisoned history): reset to
		// the sane, clamped measurement we just validated.
		e.estimate = m
		e.beta = 0
		errJ = 0
	} else if e.estimate > maxIntervalSec {
		e.estimate = maxIntervalSec
	}
	e.seeded = true

	e.errors = appendBounded(e.errors, errJ, e.k+1)
	e.measured = appendBounded(e.measured, m, e.k)
	return e.estimate
}

// Replay feeds a whole sequence of measured intervals and returns the
// prediction that was in force when each measurement arrived (aligned with
// the input). It supports offline accuracy evaluation à la Figure 6.
func Replay(e *Estimator, measured []time.Duration) []time.Duration {
	out := make([]time.Duration, len(measured))
	for i, m := range measured {
		out[i] = e.Predict()
		e.Observe(m)
	}
	return out
}

func lastN(xs []float64, n int) []float64 {
	if len(xs) <= n {
		return xs
	}
	return xs[len(xs)-n:]
}

func appendBounded(xs []float64, v float64, bound int) []float64 {
	xs = append(xs, v)
	if len(xs) > bound {
		copy(xs, xs[len(xs)-bound:])
		xs = xs[:bound]
	}
	return xs
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
