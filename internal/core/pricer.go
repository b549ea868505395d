package core

import (
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/cost"
)

// pricer evaluates the transient cost of single actions executed from one
// parent configuration under one workload. setRates reads the string-keyed
// maps (rates, utility parameters) once, setBase realigns the parent's
// Steady with the utility applications, and the parent is loaded into view;
// cost then reads arrays only, so pricing the ≈ 47 children of an expansion
// touches no map. A pricer is scratch: the Searcher keeps one for its
// expansions, and the Evaluator one that Action reloads per call.
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

// eq1 is Eq. 1 under one workload, aligned with Evaluator.utilNames: what is
// left of each application's utility.AppParams once its request rate is
// known. Loaded once, it lets a hot loop sum performance rates without
// touching a map, converting a duration or calling a reward or penalty
// function (they are taken to be pure; each is called once per load).
type eq1 struct {
	apps     []eq1App
	interval float64 // monitoring interval, seconds
}

// eq1App is one application's Eq. 1 at a fixed request rate.
type eq1App struct {
	target   float64 // TargetRT, seconds
	reward   float64 // accrual rate at or under the target: RewardAt(rate)/interval
	penalty  float64 // PenaltyAt(rate), dollars per monitoring interval
	gradient float64 // PenaltyGradient
}

func (q *eq1) load(e *Evaluator, rates map[string]float64) {
	q.apps = sized(q.apps, len(e.utilNames))
	q.interval = e.util.MonitoringInterval.Seconds()
	for i, name := range e.utilNames {
		a, rate := e.util.Apps[name], rates[name]
		q.apps[i] = eq1App{
			target:   a.TargetRT.Seconds(),
			reward:   a.Reward(rate) / q.interval,
			penalty:  a.Penalty(rate),
			gradient: a.PenaltyGradient,
		}
	}
}

// perfRate is utility.AppParams.PerfRate for application i at the loaded
// rate, bit for bit: the same operations on the same values, with the ones
// that do not depend on the response time done by load.
func (q *eq1) perfRate(i int, rtSec float64) float64 {
	a := &q.apps[i]
	if rtSec <= a.target {
		return a.reward
	}
	pen := a.penalty
	if a.gradient > 0 && a.target > 0 {
		over := (rtSec - a.target) / a.target
		if over > 3 {
			over = 3
		}
		pen *= 1 + a.gradient*over
	}
	return pen / q.interval
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

// setBase fixes the steady state of the configuration actions are executed
// from, which the caller loads into view.
func (p *pricer) setBase(base Steady) {
	model := p.e.utilModel
	p.baseRT = sized(p.baseRT, len(model))
	p.hasRT = sized(p.hasRT, len(model))
	for i, ai := range model {
		p.baseRT[i], p.hasRT[i] = 0, ai >= 0 && ai < len(base.RT)
		if p.hasRT[i] {
			p.baseRT[i] = base.RT[ai]
		}
	}
	p.watts = base.Watts
}

// cost is the transient evaluation of one action of the given kind from the
// loaded parent: its duration and the utility accrual rate while it runs
// (Eq. 1 and 2 applied to the degraded response times and elevated power of
// §III-C). vm, host and from are the catalog indices of the action's VM,
// Host and FromHost, -1 for none.
func (p *pricer) cost(kind cluster.ActionKind, vm, host, from int) ActionCost {
	return p.costEntry(p.entry(kind, vm), vm, host, from)
}

// entry is the cost-table entry an action of the given kind on the vm-th VM
// is charged under the loaded workload; the zero Entry, which charges
// nothing, when the kind is unmeasured.
func (p *pricer) entry(kind cluster.ActionKind, vm int) cost.Entry {
	var rate float64
	if vm >= 0 {
		rate = p.appRate[p.e.cat.VMApp(vm)]
	}
	en, _ := p.e.costs.Lookup(kind, vm, rate)
	return en
}

// costEntry is cost for an action whose entry has been looked up. The Eq. 1
// fold visits the utility applications in sorted order with the values the
// map-based formulation read, so the rate keeps its bits.
func (p *pricer) costEntry(en cost.Entry, vm, host, from int) ActionCost {
	e := p.e
	dur, deltaWatts, _ := e.costs.PredictEntry(&p.view, en, vm, host, from, p.deltaRT)
	var perf float64
	for i := range p.apps {
		// Applications the model did not evaluate read as zero even when a
		// delta exists.
		var rt float64
		if p.hasRT[i] {
			rt = p.baseRT[i]
			if app := e.utilApp[i]; app >= 0 {
				rt += p.deltaRT[app]
			}
		}
		perf += p.perfRate(i, rt)
	}
	return ActionCost{Duration: dur, Rate: perf + e.util.PowerRate(p.watts+deltaWatts)}
}

// entryCache keeps the cost-table entry of each (kind, VM) one search
// prices: a search's rates are fixed, so is every entry.
type entryCache struct {
	slots []entrySlot
	cols  int // catalog VMs + 1; column 0 serves actions that name no VM
}

type entrySlot struct {
	entry cost.Entry
	set   bool
}

// entryKinds is how many action kinds an entryCache has rows for.
const entryKinds = int(cluster.ActionWANMigrate) + 1

// reset empties the cache for a search over a catalog of vms VMs.
func (c *entryCache) reset(vms int) {
	c.cols = vms + 1
	c.slots = sized(c.slots, entryKinds*c.cols)
	clear(c.slots)
}

// get returns p.entry(s.Kind, s.VM), looking it up on the first call of the
// search.
func (c *entryCache) get(p *pricer, s *cluster.Staged) cost.Entry {
	slot := &c.slots[int(s.Kind)*c.cols+int(s.VM)+1]
	if !slot.set {
		*slot = entrySlot{entry: p.entry(s.Kind, int(s.VM)), set: true}
	}
	return slot.entry
}
