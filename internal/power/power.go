// Package power implements the utilization-based host power model of
// §III-B: pwr = pwr_idle + (pwr_busy − pwr_idle)·(2ρ − ρ^r), with the
// exponent r calibrated offline by least squares against metered samples,
// plus system-level aggregation over powered-on hosts.
package power

import (
	"fmt"
	"math"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// HostWatts returns the modeled power draw of a host at CPU utilization
// util in [0,1], using the host's calibrated parameters. Utilization is
// clamped to [0,1].
func HostWatts(spec cluster.HostSpec, util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	r := spec.PowerExponent
	if r <= 0 {
		r = 1
	}
	return spec.IdleWatts + (spec.BusyWatts-spec.IdleWatts)*(2*util-math.Pow(util, r))
}

// HostWattsAtFreq extends the model with DVFS: dynamic power scales
// roughly with the cube of frequency (voltage tracks frequency), while a
// smaller share of the idle draw also falls with frequency. At nominal
// frequency (1.0) it reduces exactly to HostWatts.
func HostWattsAtFreq(spec cluster.HostSpec, util, freq float64) float64 {
	if freq >= 1 || freq <= 0 {
		return HostWatts(spec, util)
	}
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	r := spec.PowerExponent
	if r <= 0 {
		r = 1
	}
	idle := spec.IdleWatts * (0.85 + 0.15*freq)
	dynamic := (spec.BusyWatts - spec.IdleWatts) * (2*util - math.Pow(util, r)) * (0.35 + 0.65*freq*freq*freq)
	return idle + dynamic
}

// SystemWatts sums modeled power across all powered-on hosts of cfg, using
// hostUtil (utilization per host name; missing entries default to zero)
// and each host's DVFS frequency. Powered-off hosts draw nothing.
func SystemWatts(cat *cluster.Catalog, cfg cluster.Config, hostUtil map[string]float64) float64 {
	var total float64
	for _, h := range cfg.ActiveHosts() {
		spec, ok := cat.Host(h)
		if !ok {
			continue
		}
		total += HostWattsAtFreq(spec, hostUtil[h], cfg.HostFreq(h))
	}
	return total
}

// SystemWattsDense is SystemWatts over per-host slices aligned with specs
// (Catalog.HostSpecs order, which is the sorted order SystemWatts folds
// in): power state, utilization and DVFS fraction per host. It is the form
// the steady evaluation uses, which has those slices from the LQN solve and
// no reason to build a map and a sorted host list per configuration.
func SystemWattsDense(specs []cluster.HostSpec, on []bool, util, freq []float64) float64 {
	var total float64
	for i := range specs {
		if on[i] {
			total += HostWattsAtFreq(specs[i], util[i], freq[i])
		}
	}
	return total
}

// Sample is one offline calibration measurement: metered watts at a given
// CPU utilization.
type Sample struct {
	Util  float64
	Watts float64
}

// FitR calibrates the exponent r of the power model for a host by
// minimizing the squared error against metered samples, exactly as the
// paper's "model calibration phase" does. The search is a golden-section
// minimization over r ∈ [0.5, 8], which brackets all physically plausible
// concavities. It returns an error if no samples are provided.
func FitR(spec cluster.HostSpec, samples []Sample) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("power: FitR needs at least one sample")
	}
	sse := func(r float64) float64 {
		s := spec
		s.PowerExponent = r
		var sum float64
		for _, smp := range samples {
			d := HostWatts(s, smp.Util) - smp.Watts
			sum += d * d
		}
		return sum
	}
	const (
		lo, hi = 0.5, 8.0
		phi    = 0.6180339887498949
	)
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := sse(c), sse(d)
	for i := 0; i < 100 && b-a > 1e-9; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = sse(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = sse(d)
		}
	}
	return (a + b) / 2, nil
}

// CalibrationCampaign generates model samples for a host across a
// utilization sweep using a ground-truth exponent and measurement noise
// produced by the supplied jitter function (e.g. a seeded RNG). It supports
// tests and the offline-calibration example; production users calibrate
// against a real meter instead.
func CalibrationCampaign(spec cluster.HostSpec, trueR float64, points int, jitter func(watts float64) float64) []Sample {
	if points < 2 {
		points = 2
	}
	truth := spec
	truth.PowerExponent = trueR
	samples := make([]Sample, 0, points)
	for i := 0; i < points; i++ {
		u := float64(i) / float64(points-1)
		w := HostWatts(truth, u)
		if jitter != nil {
			w = jitter(w)
		}
		samples = append(samples, Sample{Util: u, Watts: w})
	}
	return samples
}
