// Package power implements the utilization-based host power model of
// §III-B: pwr = pwr_idle + (pwr_busy − pwr_idle)·(2ρ − ρ^r), with each
// host's exponent r a catalog parameter (the paper fits it to its meter),
// plus DVFS scaling and system-level aggregation over powered-on hosts.
package power

import (
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
