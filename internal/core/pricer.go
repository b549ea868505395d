package core

import (
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/utility"
)

// pricer evaluates the transient cost of single actions executed from one
// parent configuration under one workload. setRates and setParent read the
// string-keyed maps (rates, utility parameters, the parent's Config and
// Steady) once; cost then reads arrays only, so pricing the ≈ 47 children of
// an expansion touches no map. A pricer is scratch owned by one goroutine:
// the Searcher keeps one for its expansions, Evaluator.Action draws one from
// a pool per call.
type pricer struct {
	e *Evaluator
	// view is the parent configuration; the search's generator, candidate
	// test and distance terms read the same load.
	view cluster.View

	// Per workload, aligned with Catalog.Apps: request rates.
	appRate []float64
	eq1

	// Per parent, aligned with utilNames: the steady response times the
	// model evaluated (hasRT false where it evaluated none), and the
	// steady power draw.
	baseRT []float64
	hasRT  []bool
	watts  float64

	// deltaRT is cost's scratch, aligned with Catalog.Apps.
	deltaRT []float64
}

// eq1 is what Eq. 1 needs of one workload, aligned with Evaluator.utilNames:
// each application's parameters and request rate, and the monitoring
// interval they accrue over. Loaded once, it lets a hot loop sum performance
// rates without touching a map.
type eq1 struct {
	params   []utility.AppParams
	rate     []float64
	interval float64
}

func (q *eq1) load(e *Evaluator, rates map[string]float64) {
	q.params = sized(q.params, len(e.utilNames))
	q.rate = sized(q.rate, len(e.utilNames))
	for i, name := range e.utilNames {
		q.params[i] = e.util.Apps[name]
		q.rate[i] = rates[name]
	}
	q.interval = e.util.MonitoringInterval.Seconds()
}

// sized returns s with length n, reusing its backing array when it fits.
// Contents are unspecified: callers overwrite every element.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// setRates fixes the workload every later cost call prices under.
func (p *pricer) setRates(rates map[string]float64) {
	e := p.e
	apps := e.cat.Apps()
	p.appRate = sized(p.appRate, len(apps))
	for i, name := range apps {
		p.appRate[i] = rates[name]
	}
	p.deltaRT = sized(p.deltaRT, len(apps))
	p.eq1.load(e, rates)
}

// setParent loads the configuration actions are executed from, whose steady
// state is base. It reports whether cfg fits the catalog (View.Load).
func (p *pricer) setParent(cfg cluster.Config, base Steady) bool {
	names := p.e.utilNames
	p.baseRT = sized(p.baseRT, len(names))
	p.hasRT = sized(p.hasRT, len(names))
	for i, name := range names {
		p.baseRT[i], p.hasRT[i] = base.RTSec[name]
	}
	p.watts = base.Watts
	return p.view.Load(p.e.cat, cfg)
}

// cost is the transient evaluation of one action of the given kind from the
// loaded parent: its duration and the utility accrual rate while it runs
// (Eq. 1 and 2 applied to the degraded response times and elevated power of
// §III-C). vm, host and from are the catalog indices of the action's VM,
// Host and FromHost, -1 for none. The Eq. 1 fold visits the utility
// applications in sorted order with the values the map-based formulation
// read, so the rate keeps its bits.
func (p *pricer) cost(kind cluster.ActionKind, vm, host, from int) ActionCost {
	e := p.e
	var rate float64
	if vm >= 0 {
		rate = p.appRate[e.cat.VMApp(vm)]
	}
	dur, deltaWatts, _ := e.costs.PredictView(&p.view, kind, vm, host, from, rate, p.deltaRT)
	var perf float64
	for i := range p.params {
		// Applications the model did not evaluate read as zero even when a
		// delta exists.
		var rt float64
		if p.hasRT[i] {
			rt = p.baseRT[i]
			if app := e.utilApp[i]; app >= 0 {
				rt += p.deltaRT[app]
			}
		}
		perf += p.params[i].PerfRate(p.interval, p.rate[i], rt)
	}
	return ActionCost{Duration: dur, Rate: perf + e.util.PowerRate(p.watts+deltaWatts)}
}
