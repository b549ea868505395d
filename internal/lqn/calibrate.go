package lqn

import (
	"fmt"
	"math"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

// CalibrateDemands scales the CPU demands of every application by a common
// factor so that refApp's mean response time under (cfg, load) equals its
// target response time. This mirrors the paper's derivation of the 400 ms
// target: the observed mean response time of RUBiS in the default
// configuration (all tiers at 40% CPU, 50 req/s).
//
// The specs are mutated in place. The applied factor is returned.
func CalibrateDemands(cat *cluster.Catalog, apps []*app.Spec, cfg cluster.Config, load map[string]float64, refApp string) (float64, error) {
	var ref *app.Spec
	for _, a := range apps {
		if a.Name == refApp {
			ref = a
		}
	}
	if ref == nil {
		return 0, fmt.Errorf("lqn: calibration reference app %q not found", refApp)
	}
	target := ref.TargetRT.Seconds()

	rtAtScale := func(k float64) (float64, error) {
		scaled := make([]*app.Spec, len(apps))
		for i, a := range apps {
			scaled[i] = a.Clone(a.Name)
			scaled[i].ScaleDemands(k)
		}
		m, err := NewModel(cat, scaled)
		if err != nil {
			return 0, err
		}
		res, err := m.Evaluate(cfg, load, nil)
		if err != nil {
			return 0, err
		}
		return res.MeanRTSec(refApp), nil
	}

	// Bracket the target: response time is monotone nondecreasing in the
	// demand scale.
	lo, hi := 1e-3, 1.0
	for i := 0; ; i++ {
		rt, err := rtAtScale(hi)
		if err != nil {
			return 0, fmt.Errorf("lqn: calibration: %w", err)
		}
		if rt >= target {
			break
		}
		hi *= 2
		if i > 40 {
			return 0, fmt.Errorf("lqn: calibration cannot reach target %.3fs (rt %.3fs at scale %g)", target, rt, hi)
		}
	}
	for i := 0; i < 80 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		rt, err := rtAtScale(mid)
		if err != nil {
			return 0, fmt.Errorf("lqn: calibration: %w", err)
		}
		if rt < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	if math.IsNaN(k) || k <= 0 {
		return 0, fmt.Errorf("lqn: calibration produced invalid scale %g", k)
	}
	for _, a := range apps {
		a.ScaleDemands(k)
	}
	return k, nil
}
