package core

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/predict"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/workload"
)

// ControllerOptions configures one Mistral controller instance (one level
// of the hierarchy).
type ControllerOptions struct {
	// Name labels the controller in logs and results (e.g. "L1-rack0").
	Name string
	// BandWidth is the workload band width in req/s (0 for the paper's
	// 1st-level controllers: any workload change triggers re-evaluation).
	BandWidth float64
	// Space restricts the adaptation actions this controller may take.
	Space cluster.ActionSpace
	// Hosts scopes the controller to a host subset; empty means all.
	Hosts []string
	// Scope selects the Perf-Pwr variant used for the ideal configuration:
	// ScopeFull (the default) repacks everything (2nd level), ScopeSubset
	// only the VMs inside Hosts (1st level).
	Scope PerfPwrScope
	// PinAppsToZones constrains the controller's ideal configuration to
	// keep each application in its current data-center zone. Set it on
	// levels that cannot migrate across the WAN, so their search bound
	// stays reachable.
	PinAppsToZones bool
	// AppHostPools confines each application to a fixed host pool in both
	// the ideal computation and the action space (the Perf-Cost baseline's
	// "2 hosts per application" allotment).
	AppHostPools map[string][]string
	// Search configures the A* search.
	Search SearchOptions
	// MonitoringInterval is the unit monitoring interval M.
	MonitoringInterval time.Duration
	// MinCW floors the control window (default 4×M). During steep ramps
	// every monitoring interval crosses the band, driving the ARMA
	// estimate to its minimum; without a floor no adaptation with a
	// minute-scale cost can ever pay off and the controller freezes
	// exactly when action is most needed.
	MinCW time.Duration
	// Obs overrides the process-default observer (obs.SetDefault) for this
	// controller and its searcher; nil resolves the default.
	Obs *obs.Observer
	// Provenance enables the decision flight recorder: every Decision
	// carries a provenance.DecisionProv (prediction context plus the search
	// digest; see SearchOptions.Provenance, which this implies). Off by
	// default; decisions are identical either way.
	Provenance bool
}

func (o ControllerOptions) withDefaults() ControllerOptions {
	if o.MonitoringInterval <= 0 {
		o.MonitoringInterval = 2 * time.Minute
	}
	if o.MinCW <= 0 {
		o.MinCW = 4 * o.MonitoringInterval
	}
	if o.Provenance {
		o.Search.Provenance = true
	}
	return o
}

// utilityHistory is how many recent window utilities feed the pessimistic
// expected utility UH.
const utilityHistory = 3

// windowRecord is one past window's realized utility and rates.
type windowRecord struct {
	utility  float64 // dollars over the window
	perfRate float64 // dollars/second
	pwrRate  float64 // dollars/second, non-positive
}

// Controller is one Mistral controller: it tracks workload bands, predicts
// stability intervals with the adaptive ARMA filter, computes the ideal
// configuration via Perf-Pwr, and searches for the optimal adaptation plan.
type Controller struct {
	opts     ControllerOptions
	eval     *Evaluator
	searcher *Searcher
	est      *predict.Estimator

	bands     map[string]workload.Band
	bandsSet  bool
	bandStart time.Duration
	history   []windowRecord

	obsv       *obs.Observer
	log        *slog.Logger
	cDecides   *obs.Counter
	cFallbacks *obs.Counter
	tc         obs.TraceContext
}

// SetTraceContext installs the current monitoring window's trace
// context, shared with the scenario loop's root span and the window's
// provenance record. The controller stamps its spans with the trace ID
// and deterministic span IDs composed from its (unique) name, and
// forwards the context to its searcher so expansion-batch events join
// the same story. Purely observational; decisions are identical with
// or without it.
func (c *Controller) SetTraceContext(tc obs.TraceContext) {
	c.tc = tc
	c.searcher.SetTrace(tc, c.opts.Name)
}

// NewController builds a controller over an evaluator.
func NewController(eval *Evaluator, opts ControllerOptions) (*Controller, error) {
	if eval == nil {
		return nil, fmt.Errorf("core: controller needs an evaluator")
	}
	opts = opts.withDefaults()
	c := &Controller{
		opts:     opts,
		eval:     eval,
		searcher: NewSearcher(eval, opts.Search),
		// The stability-interval estimator is seeded with 2×M before any
		// measurement.
		est: predict.NewEstimator(0, 0, 2*opts.MonitoringInterval),
	}
	o := obs.Resolve(opts.Obs)
	c.obsv = o
	c.log = o.Logger()
	c.cDecides = o.Counter("controller_decisions_total")
	c.cFallbacks = o.Counter("controller_fallbacks_total")
	c.searcher.SetObserver(o)
	if opts.Obs != nil {
		// An explicit observer also rebinds the shared evaluator, which
		// otherwise keeps whatever default it resolved at construction.
		eval.SetObserver(o)
	}
	return c, nil
}

// Name returns the controller's label.
func (c *Controller) Name() string { return c.opts.Name }

// Options returns the controller's configuration.
func (c *Controller) Options() ControllerOptions { return c.opts }

// Decision is the outcome of one controller invocation.
type Decision struct {
	// Invoked reports whether the workload escaped the band and a search
	// actually ran; when false all other fields are zero.
	Invoked bool
	// Plan is the chosen action sequence (possibly empty).
	Plan []cluster.Action
	// CW is the predicted stability interval used as the control window.
	CW time.Duration
	// MeasuredInterval is the just-completed stability interval.
	MeasuredInterval time.Duration
	// Ideal is the Perf-Pwr result used as the search heuristic.
	Ideal Ideal
	// Search carries the search statistics (time, self-cost, pruning).
	Search SearchResult
	// CurrentNetRate is the steady net utility rate ($/s) of the
	// configuration the controller decided from, kept so observability
	// spans can be populated without re-deriving state.
	CurrentNetRate float64
	// Degraded reports the controller fell back to a no-adaptation
	// decision because evaluating the current configuration, the Perf-Pwr
	// ideal, or the search itself errored. The cluster keeps running on
	// its current configuration and the controller retries next window.
	// DegradedReason names the failing stage and error.
	Degraded       bool
	DegradedReason string
	// Prov is this decision's flight-recorder entry; nil unless
	// ControllerOptions.Provenance is set.
	Prov *provenance.DecisionProv
}

// fallback degrades to the no-adaptation decision: log a warning, count
// the fallback, keep the cluster on its current configuration, and let the
// next window retry.
func (c *Controller) fallback(now time.Duration, stage string, err error) Decision {
	c.cFallbacks.Inc()
	c.log.Warn("controller degrading to no adaptation",
		"controller", c.opts.Name, "t", now, "stage", stage, "err", err)
	d := Decision{Invoked: true, Degraded: true, DegradedReason: stage + ": " + err.Error()}
	if c.opts.Provenance {
		d.Prov = &provenance.DecisionProv{
			Controller:     c.opts.Name,
			Degraded:       true,
			DegradedReason: d.DegradedReason,
		}
	}
	return d
}

// ShouldRun reports whether the current rates escape the controller's
// bands. Before the first decision it is always true. A zero band width
// means the controller is invoked on every unit monitoring interval, the
// paper's 1st-level setting. Every application's rate counts at every
// level: the paper partitions hosts, not applications.
func (c *Controller) ShouldRun(rates map[string]float64) bool {
	if !c.bandsSet || c.opts.BandWidth <= 0 {
		return true
	}
	return workload.AnyOutside(c.bands, rates)
}

// RecordWindow feeds one completed monitoring window's realized utility so
// the controller can maintain its pessimistic expected utility UH.
func (c *Controller) RecordWindow(utilityDollars, perfRate, pwrRate float64) {
	c.history = append(c.history, windowRecord{utility: utilityDollars, perfRate: perfRate, pwrRate: pwrRate})
	if len(c.history) > utilityHistory {
		c.history = c.history[len(c.history)-utilityHistory:]
	}
}

// expected derives UH for a control window of length cw: the lowest recent
// window utility, scaled from the monitoring interval to the window.
func (c *Controller) expected(cw time.Duration) ExpectedUtility {
	if len(c.history) == 0 {
		return ExpectedUtility{Total: 0}
	}
	low := c.history[0]
	for _, r := range c.history[1:] {
		if r.utility < low.utility {
			low = r
		}
	}
	scale := cw.Seconds() / c.opts.MonitoringInterval.Seconds()
	return ExpectedUtility{
		Total:    low.utility * scale,
		PerfRate: low.perfRate,
		PwrRate:  low.pwrRate,
	}
}

// ControllerState is a controller's mutable state in serializable form: the
// workload bands it tracks and the ARMA estimator internals. Configuration
// (options, evaluator, searcher) is not included — state is restored into a
// freshly constructed controller with the same options. Nor is the utility
// history feeding UH: it is a fold over the run's window logs, which the
// scenario engine replays through RecordWindow after Restore.
type ControllerState struct {
	Bands       map[string]workload.Band `json:"bands,omitempty"`
	BandsSet    bool                     `json:"bands_set"`
	BandStartNS int64                    `json:"band_start_ns"`
	Estimator   predict.PersistState     `json:"estimator"`
}

// Persist captures the controller's mutable state (maps and slices are
// copied).
func (c *Controller) Persist() ControllerState {
	s := ControllerState{
		BandsSet:    c.bandsSet,
		BandStartNS: int64(c.bandStart),
		Estimator:   c.est.Persist(),
	}
	if len(c.bands) > 0 {
		s.Bands = make(map[string]workload.Band, len(c.bands))
		for name, b := range c.bands {
			s.Bands[name] = b
		}
	}
	return s
}

// Restore overwrites the controller's mutable state with a captured one and
// empties the utility history.
func (c *Controller) Restore(s ControllerState) {
	c.bands = nil
	if len(s.Bands) > 0 {
		c.bands = make(map[string]workload.Band, len(s.Bands))
		for name, b := range s.Bands {
			c.bands[name] = b
		}
	}
	c.bandsSet = s.BandsSet
	c.bandStart = time.Duration(s.BandStartNS)
	c.history = nil
	c.est.Restore(s.Estimator)
}

// Decide runs one control cycle at virtual time now: band check, stability
// interval bookkeeping, Perf-Pwr ideal, and the adaptation search. It does
// not touch the evaluator's window boundary: whoever drives the controller
// (a strategy's Decide) calls Evaluator.BeginWindow once per control
// opportunity, so controllers sharing an evaluator share the window's memo.
func (c *Controller) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (Decision, error) {
	if !c.ShouldRun(rates) {
		return Decision{}, nil
	}

	var measured time.Duration
	if c.bandsSet {
		measured = now - c.bandStart
		c.est.Observe(measured)
	}
	predicted := c.est.Predict()
	cw := predicted
	floor := ""
	if cw < c.opts.MinCW {
		cw = c.opts.MinCW
		floor = "min-cw"
	}
	cur, err := c.eval.Steady(cfg, rates)
	if err != nil {
		// Without the current configuration's steady state the decision
		// has no baseline: CurrentNetRate would silently report 0. Degrade to
		// no adaptation — the bands were not re-seeded, so the controller
		// retries next window.
		return c.fallback(now, "steady", err), nil
	}
	c.bands = workload.NewBands(rates, c.opts.BandWidth)
	c.bandsSet = true
	c.bandStart = now

	tr := c.obsv.Tracer()
	pattrs := []obs.Attr{{Key: "controller", Value: c.opts.Name}}
	if c.tc.Enabled() {
		pattrs = append(pattrs, c.tc.Attr(),
			obs.Attr{Key: "span", Value: c.tc.SpanID(c.opts.Name, "perfpwr")})
	}
	psp := tr.Start("perfpwr", now, pattrs...)
	var ideal Ideal
	if c.opts.Scope == ScopeSubset {
		ideal, err = PerfPwrSubset(c.eval, cfg, rates, c.opts.Hosts)
	} else {
		popts := PerfPwrOptions{Hosts: c.opts.Hosts, AppHostPools: c.opts.AppHostPools}
		if c.opts.PinAppsToZones {
			popts.VMZonePins = VMZonePinsOf(c.eval.cat, cfg)
		}
		ideal, err = PerfPwr(c.eval, rates, popts)
	}
	if err != nil {
		psp.End(now)
		return c.fallback(now, "perfpwr", err), nil
	}
	psp.End(now, obs.Attr{Key: "ideal_net_rate", Value: ideal.Steady.NetRate()})

	space := c.opts.Space
	if c.opts.AppHostPools != nil {
		space.AppPools = c.opts.AppHostPools
	}
	sattrs := []obs.Attr{
		{Key: "controller", Value: c.opts.Name},
		{Key: "cw_s", Value: cw.Seconds()},
	}
	if c.tc.Enabled() {
		sattrs = append(sattrs, c.tc.Attr(),
			obs.Attr{Key: "span", Value: c.tc.SpanID(c.opts.Name, "search")})
	}
	ssp := tr.Start("search", now, sattrs...)
	c.searcher.traceBase = now
	// Snapshot the evaluator's cache counters around the search so the
	// span records this decision's cache behavior.
	var st0 CacheStats
	if tr != nil {
		st0 = c.eval.CacheStats()
	}
	sr, err := c.searcher.Search(cfg, rates, cw, ideal, c.expected(cw), space)
	if err != nil {
		ssp.End(now)
		return c.fallback(now, "search", err), nil
	}
	endAttrs := []obs.Attr{
		{Key: "expanded", Value: sr.Expanded},
		{Key: "generated", Value: sr.Generated},
		{Key: "pruned_children", Value: sr.PrunedChildren},
		{Key: "plan_len", Value: len(sr.Plan)},
		{Key: "utility", Value: sr.Utility},
	}
	if tr != nil {
		st1 := c.eval.CacheStats()
		endAttrs = append(endAttrs,
			obs.Attr{Key: "cache_hits", Value: st1.Hits - st0.Hits},
			obs.Attr{Key: "cache_misses", Value: st1.Misses - st0.Misses})
	}
	ssp.End(now+sr.SearchTime, endAttrs...)
	c.cDecides.Inc()
	if c.log.Enabled(context.Background(), slog.LevelDebug) {
		c.log.Debug("decide",
			"controller", c.opts.Name,
			"t", now,
			"cw", cw,
			"cur_net_rate", cur.NetRate(),
			"ideal_net_rate", ideal.Steady.NetRate(),
			"plan_len", len(sr.Plan),
			"expanded", sr.Expanded,
			"search_time", sr.SearchTime)
	}
	d := Decision{
		Invoked:          true,
		Plan:             sr.Plan,
		CW:               cw,
		MeasuredInterval: measured,
		Ideal:            ideal,
		Search:           sr,
		CurrentNetRate:   cur.NetRate(),
	}
	if c.opts.Provenance {
		st := c.est.Persist()
		d.Prov = &provenance.DecisionProv{
			Controller: c.opts.Name,
			Predict: &provenance.PredictProv{
				BandWidth:    c.opts.BandWidth,
				MeasuredSec:  measured.Seconds(),
				PredictedSec: predicted.Seconds(),
				CWSec:        cw.Seconds(),
				Floor:        floor,
				Beta:         st.Beta,
				ARMAMeasured: st.Measured,
				ARMAErrors:   st.Errors,
			},
			Search: sr.Prov,
		}
	}
	return d, nil
}
