// Package core implements the Mistral controller of the paper: the
// Perf-Pwr optimizer that computes the ideal power/performance
// configuration while ignoring transient costs (§IV-A), the Naive and
// Self-Aware A* searches over adaptation-action sequences that maximize the
// overall utility of Eq. 3 including transient and decision-making costs
// (§IV-B), and the per-level controller driving band tracking, stability-
// interval prediction, and search invocation (§II-C).
package core

import (
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/lqn"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/power"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/utility"
)

// Steady is the evaluated steady-state behaviour of one configuration under
// one workload.
type Steady struct {
	// PerfRate is the performance utility accrual rate (Eq. 1 summed over
	// applications), dollars/second.
	PerfRate float64
	// PowerRate is the power utility accrual rate (Eq. 2), dollars/second,
	// always non-positive.
	PowerRate float64
	// Watts is the predicted system power draw.
	Watts float64
	// RT is the predicted mean response time of each application in
	// seconds, aligned with the evaluating model's application order
	// (lqn.Model.AppNames, Evaluator.Model).
	RT []float64
	// Saturated reports whether any application exceeded capacity.
	Saturated bool
}

// NetRate is the combined accrual rate, dollars/second.
func (s Steady) NetRate() float64 { return s.PerfRate + s.PowerRate }

// steadyKey identifies one steady evaluation: the configuration's
// incremental 128-bit fingerprint plus the workload vector's fingerprint.
// Comparing and hashing the 24-byte struct replaces the Key()+ratesKey
// string build (two sorted string joins per lookup) the cache used before.
type steadyKey struct {
	fp  cluster.Fingerprint
	rfp RatesFP
}

// Evaluator bundles the predictor modules of Figure 2 — the Performance
// Manager (LQN model), the Power Consolidation Manager (power model), and
// the Cost Manager (cost tables) — behind the two operations the optimizer
// needs: steady-state evaluation of a configuration and transient
// evaluation of an action. Steady evaluations are memoized by
// (configuration fingerprint, workload fingerprint) for one control window:
// the memo dedups the lookups of a window's searches and of the Perf-Pwr
// sweep's start, polish and DVFS steps, and BeginWindow — called by the
// strategy at the top of each Decide — empties it. The sweep's reduction
// candidates bypass it: they are scored on an open lqn.Session, never
// looked up or kept, and counted as evaluations all the same. Nothing is
// carried across windows: measured on the benchmark replays, retention
// bought no hits (the workload's rate band moves every window). Within a
// window the memo pays, narrowly, although it hits only 0.4–5 % of
// lookups: with the lookup replaced by a direct solve every decision stayed
// identical, and over 20 alternating benchmark pairs (2-vCPU Xeon,
// reference time) table1-scale allocated 1.6 % more per window and its
// median step took 2.9 % longer, each former hit an LQN solve whose Steady
// then allocated a string-keyed response-time map; the other workloads
// moved by less than their run-to-run spread. A miss now allocates the
// Steady and its dense RT slice, nothing else.
//
// An Evaluator has one caller at a time: the memo, the counters and the
// pricer Action loads are unsynchronized. Every controller of a hierarchy
// shares one, and they decide in turn.
type Evaluator struct {
	cat   *cluster.Catalog
	model *lqn.Model
	util  *utility.Params
	costs *cost.Manager

	// appNames is the sorted application universe of the LQN model
	// (lqn.Model.AppNames): it keys workload fingerprints without per-call
	// sorting and orders every per-application fold over a Steady.
	appNames []string
	// utilNames is the sorted application universe of the utility params:
	// the fold order PerfRateAll uses. Cached here so the hot paths can sum
	// Eq. 1 in the identical order without the per-call sort. utilApp maps
	// each to its position in the catalog's Apps (-1 for an application
	// with no VMs), where the cost manager's dense deltas are indexed, and
	// utilModel to its position in appNames (-1 for an application the model
	// does not evaluate: its response time reads as zero).
	utilNames []string
	utilApp   []int
	utilModel []int

	// fold is keep's scratch: Eq. 1 under the workload of a memo miss.
	fold eq1

	// memo holds the window's steady evaluations. Values stay pointers:
	// BeginWindow keeps the map's buckets, and a Steady stored by value
	// would about double the bytes they retain. Those buckets are most of
	// the resting heap: with the memo unpopulated, the benchmark's
	// live_heap_mb fell 47 % on fig9-replay and 30 % on table1-scale.
	memo      map[steadyKey]*Steady
	cacheHits int
	evals     int

	// act is the pricer Action loads per call; the search prices its
	// children through one of its own.
	act pricer

	// Observability sinks, resolved at construction (see obs.SetDefault)
	// and rebindable with SetObserver. Cache statistics are fed into the
	// registry on each BeginWindow rather than per lookup, so the memoized
	// hot path stays untouched.
	log     *slog.Logger
	cHits   *obs.Counter
	cMisses *obs.Counter
	cSolves *obs.Counter
	gSize   *obs.Gauge

	// cSweepArms counts the Perf-Pwr sweep arms that ran (the sweep is a
	// free function over the evaluator, so its instrumentation lives here).
	cSweepArms *obs.Counter
}

// NewEvaluator builds an evaluator.
func NewEvaluator(cat *cluster.Catalog, model *lqn.Model, util *utility.Params, costs *cost.Manager) (*Evaluator, error) {
	if cat == nil || model == nil || util == nil || costs == nil {
		return nil, fmt.Errorf("core: evaluator needs catalog, model, utility params, and cost manager")
	}
	if err := util.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	utilNames := make([]string, 0, len(util.Apps))
	for name := range util.Apps {
		utilNames = append(utilNames, name)
	}
	sort.Strings(utilNames)
	e := &Evaluator{
		cat:       cat,
		model:     model,
		util:      util,
		costs:     costs,
		appNames:  model.AppNames(),
		utilNames: utilNames,
	}
	catApps := cat.Apps()
	e.utilApp = make([]int, len(utilNames))
	e.utilModel = make([]int, len(utilNames))
	for i, name := range utilNames {
		e.utilApp[i], e.utilModel[i] = -1, -1
		if j := sort.SearchStrings(catApps, name); j < len(catApps) && catApps[j] == name {
			e.utilApp[i] = j
		}
		if j := sort.SearchStrings(e.appNames, name); j < len(e.appNames) && e.appNames[j] == name {
			e.utilModel[i] = j
		}
	}
	e.act.e = e
	e.memo = make(map[steadyKey]*Steady)
	e.SetObserver(obs.Default())
	return e, nil
}

// SetObserver rebinds the evaluator's observability sinks (construction
// resolves the process default); pass nil to disable.
func (e *Evaluator) SetObserver(o *obs.Observer) {
	e.log = o.Logger()
	e.cHits = o.Counter("eval_cache_hits_total")
	e.cMisses = o.Counter("eval_cache_misses_total")
	e.cSolves = o.Counter("lqn_solves_total")
	e.gSize = o.Gauge("eval_cache_entries")
	e.cSweepArms = o.Counter("perfpwr_sweep_arms_total")
}

// CacheStats is the evaluator's memoization activity since the last
// BeginWindow. Misses count the steady evaluations performed, each one an
// LQN solve: memo misses plus the reduction candidates Perf-Pwr scored
// without a lookup; Entries is the live cache size.
type CacheStats struct {
	Hits, Misses, Entries int
}

// HitRate is the fraction of lookups served from the cache.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// CacheStats reports cache activity since the last BeginWindow.
func (e *Evaluator) CacheStats() CacheStats {
	return CacheStats{Hits: e.cacheHits, Misses: e.evals, Entries: len(e.memo)}
}

// Catalog returns the catalog.
func (e *Evaluator) Catalog() *cluster.Catalog { return e.cat }

// Utility returns the utility parameters.
func (e *Evaluator) Utility() *utility.Params { return e.util }

// Costs returns the cost manager.
func (e *Evaluator) Costs() *cost.Manager { return e.costs }

// BeginWindow marks a control-window boundary: the window's cache
// statistics are flushed into the metrics registry (keeping the per-lookup
// path free of instrumentation) and the memo is emptied. The map is cleared
// in place — it keeps its buckets, so a window's inserts do not re-grow it.
func (e *Evaluator) BeginWindow() {
	entries := len(e.memo)
	clear(e.memo)
	e.cHits.Add(int64(e.cacheHits))
	e.cMisses.Add(int64(e.evals))
	e.cSolves.Add(int64(e.evals))
	e.gSize.Set(float64(entries))
	e.cacheHits, e.evals = 0, 0
}

// ResetCache is BeginWindow under its older name.
//
// Deprecated: use BeginWindow; ResetCache remains only because bench/ calls it.
func (e *Evaluator) ResetCache() { e.BeginWindow() }

// Evals reports how many steady evaluations were performed since the last
// BeginWindow (a proxy for model-solving work).
func (e *Evaluator) Evals() int { return e.evals }

// RatesFP is a 64-bit fingerprint of a workload vector, the rate-band half
// of the steady-cache key. Callers on the search hot path compute it once
// per decision with RatesFingerprint and thread it through SteadyFP; the
// per-lookup alternative — rebuilding a sorted key string for every child —
// was measured as a top allocation source in the expansion loop.
type RatesFP uint64

// RatesFingerprint fingerprints a workload vector (FNV-1a over the fixed
// application universe in sorted order; apps absent from rates fingerprint
// as zero, matching how the model treats them). Rates are bucketed at 0.01
// req/s, the same band the old string key rounded to.
func (e *Evaluator) RatesFingerprint(rates map[string]float64) RatesFP {
	h := uint64(14695981039346656037)
	fold := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for _, name := range e.appNames {
		for i := 0; i < len(name); i++ {
			fold(name[i])
		}
		fold(0xff)
		u := uint64(int64(rates[name]*100 + 0.5))
		for i := 0; i < 8; i++ {
			fold(byte(u >> (8 * i)))
		}
	}
	return RatesFP(h)
}

// Steady evaluates a configuration's steady-state utility rates under the
// given per-application request rates. Failed solves are not cached, so
// every later lookup of that key retries.
func (e *Evaluator) Steady(cfg cluster.Config, rates map[string]float64) (Steady, error) {
	return e.SteadyFP(cfg, rates, e.RatesFingerprint(rates))
}

// SteadyFP is Steady for callers that evaluate many configurations under
// one workload vector: rfp is RatesFingerprint(rates), computed once per
// decision and threaded through, so each lookup costs a 24-byte key build
// and a map probe.
func (e *Evaluator) SteadyFP(cfg cluster.Config, rates map[string]float64, rfp RatesFP) (Steady, error) {
	return e.steadyOver(cfg, nil, rates, rfp)
}

// steadyOver evaluates the configuration cfg would be after the delta d
// (nil: cfg itself) without building it: the cache key comes from
// FingerprintWith and a miss solves through the overlay. This is how the
// Perf-Pwr optimizer scores a candidate one placement or DVFS change away
// from its base — the key and the Steady are those of the built candidate.
func (e *Evaluator) steadyOver(cfg cluster.Config, d *cluster.Delta, rates map[string]float64, rfp RatesFP) (Steady, error) {
	key := steadyKey{fp: cfg.Fingerprint(), rfp: rfp}
	if d != nil {
		key.fp = cfg.FingerprintWith(*d)
	}
	if s, ok := e.lookup(key); ok {
		return s, nil
	}
	sol, err := e.model.Solve(cfg, d, rates)
	return e.keep(key, sol, err, rates)
}

// steadyView is SteadyFP for the configuration loaded in v, whose
// fingerprint is fp: the same key, the same hit and miss counting, and on a
// miss the same solve, read off the view's arrays instead of a Config's maps.
// It is how the search evaluates the vertex it pops.
func (e *Evaluator) steadyView(v *cluster.View, fp cluster.Fingerprint, rates map[string]float64, rfp RatesFP) (Steady, error) {
	key := steadyKey{fp: fp, rfp: rfp}
	if s, ok := e.lookup(key); ok {
		return s, nil
	}
	sol, err := e.model.SolveView(v, rates)
	return e.keep(key, sol, err, rates)
}

// lookup returns the window's memoized evaluation under key, counting a hit.
func (e *Evaluator) lookup(key steadyKey) (Steady, bool) {
	s, ok := e.memo[key]
	if !ok {
		return Steady{}, false
	}
	e.cacheHits++
	return *s, true
}

// keep completes one uncached steady evaluation from its LQN solve — power
// and utility-rate derivation — hands the solve back and memoizes the Steady
// under key, counting the evaluation. A failed solve is neither kept nor
// counted, so every later lookup of that key retries. The Steady and its RT
// are the only things it allocates.
func (e *Evaluator) keep(key steadyKey, sol *lqn.Solution, err error, rates map[string]float64) (Steady, error) {
	if err != nil {
		return Steady{}, fmt.Errorf("core: steady evaluation: %w", err)
	}
	s := Steady{RT: make([]float64, len(e.appNames))}
	s.Watts = power.SystemWattsDense(e.model.Catalog().HostSpecs(), sol.HostOn, sol.HostCPUUtil, sol.HostFreq)
	s.PowerRate = e.util.PowerRate(s.Watts)
	copy(s.RT, sol.MeanRTSec)
	s.Saturated = slices.Contains(sol.Saturated, true)
	e.model.Release(sol)
	e.fold.load(e, rates)
	s.PerfRate = e.perfRate(&e.fold, s.RT)
	e.evals++
	e.memo[key] = &s
	if testHookKeep != nil {
		testHookKeep(e, s, rates)
	}
	return s, nil
}

// testHookKeep, nil outside tests, sees every Steady keep memoizes with the
// workload it was evaluated under.
var testHookKeep func(e *Evaluator, s Steady, rates map[string]float64)

// perfRate sums Eq. 1 across the utility application universe in sorted
// order, reading each application's response time from rt (aligned with
// appNames; an application the model does not evaluate reads zero): the
// identical floating-point fold utility.Params.PerfRateAll performs over the
// same values, without a map.
func (e *Evaluator) perfRate(q *eq1, rt []float64) float64 {
	var sum float64
	for i, ai := range e.utilModel {
		var v float64
		if ai >= 0 {
			v = rt[ai]
		}
		sum += q.perfRate(i, v)
	}
	return sum
}

// ActionCost is the transient evaluation of one action executed from a
// given configuration: its duration and the utility accrual rate while it
// runs (Eq. 1 and 2 applied to the degraded response times and elevated
// power of §III-C).
type ActionCost struct {
	Duration time.Duration
	// Rate is the utility accrual rate during the action, dollars/second.
	Rate float64
}

// Action evaluates the transient cost of executing a from cfg, whose steady
// state is base (pass the memoized Steady of cfg). It reloads the
// evaluator's pricer on every call; code that costs many actions from one
// configuration — the search — loads a pricer of its own once instead.
func (e *Evaluator) Action(cfg cluster.Config, base Steady, a cluster.Action, rates map[string]float64) ActionCost {
	p := &e.act
	p.setRates(rates)
	p.setBase(base)
	// A configuration that does not fit the catalog is priced on the part
	// that does, as cost.PredictInto does.
	p.view.Load(e.cat, cfg)
	vm, host, from := e.cat.ActionIndices(a)
	return p.cost(a.Kind, vm, host, from)
}

// Model exposes the LQN model (used by scenario assembly).
func (e *Evaluator) Model() *lqn.Model { return e.model }

// PlanLedger replays a plan from cfg and decomposes its Eq. 3 utility for
// the flight recorder: per-action transient costs in execution order, then
// the final configuration's steady rates over the window time left. The
// replay performs the same operations in the same order as the search's
// vertex accounting (Apply, Action, accrued += duration·rate, then
// remaining·NetRate), so for the chosen plan the ledger's Utility
// reproduces SearchResult.Utility bit-for-bit — the provenance --check
// tolerance of 1e-9 is slack, not rounding headroom. A replay failure is
// recorded in Error rather than returned: a ledger that cannot be rebuilt
// should not fail the decision it documents.
func (e *Evaluator) PlanLedger(cfg cluster.Config, rates map[string]float64, cw time.Duration, plan []cluster.Action) provenance.PlanLedger {
	var l provenance.PlanLedger
	cur := cfg
	var dur time.Duration
	var accrued float64
	for i, a := range plan {
		st, err := e.Steady(cur, rates)
		if err != nil {
			l.Error = fmt.Sprintf("action %d (%s): steady: %v", i, a, err)
			return l
		}
		next, filled, err := cluster.Apply(e.cat, cur, a)
		if err != nil {
			l.Error = fmt.Sprintf("action %d (%s): apply: %v", i, a, err)
			return l
		}
		ac := e.Action(cur, st, filled, rates)
		l.Actions = append(l.Actions, provenance.ActionProv{
			Action:            filled.String(),
			DurationSec:       ac.Duration.Seconds(),
			RateDollarsPerSec: ac.Rate,
			CostDollars:       ac.Duration.Seconds() * ac.Rate,
		})
		accrued += ac.Duration.Seconds() * ac.Rate
		dur += ac.Duration
		cur = next
	}
	st, err := e.Steady(cur, rates)
	if err != nil {
		l.Error = fmt.Sprintf("final steady: %v", err)
		return l
	}
	rem := (cw - dur).Seconds()
	if rem < 0 {
		rem = 0
	}
	l.TransientDollars = accrued
	l.PlanDurationSec = dur.Seconds()
	l.SteadyPerfRate = st.PerfRate
	l.SteadyPwrRate = st.PowerRate
	l.SteadySec = rem
	l.SteadyDollars = rem * st.NetRate()
	l.Utility = accrued + l.SteadyDollars
	return l
}
