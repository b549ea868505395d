package core

import (
	"container/heap"
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/par"
	"github.com/mistralcloud/mistral/internal/provenance"
)

// SearchOptions tunes the adaptation search of §IV-B.
type SearchOptions struct {
	// SelfAware enables Algorithm 1's self-cost accounting and dynamic
	// pruning; false yields the Naive A* baseline.
	SelfAware bool
	// PruneFraction is the fraction of expanded children kept once the
	// Self-Aware trigger fires (default 0.05, the paper's top 5%).
	PruneFraction float64
	// PruneMinKeep floors the pruned width (default 6): a beam of one or
	// two children collapses into already-visited configurations and
	// drains the frontier before any plan is found.
	PruneMinKeep int
	// DelayFraction is the search delay threshold T̄ as a fraction of the
	// control window (default 0.05, the paper's 5%).
	DelayFraction float64
	// TimePerChild is the simulated decision-making time charged per
	// generated child vertex; it makes self-awareness deterministic
	// (default 250 µs, calibrated to the paper's search durations).
	TimePerChild time.Duration
	// SearchWatts is the power drawn by the controller host while
	// searching; the paper measures ≈12% over a 60 W idle host (default
	// 67 W).
	SearchWatts float64
	// MaxExpansions bounds the number of vertex expansions as a safety
	// valve (default 2500). When hit, the best candidate found so far is
	// returned.
	MaxExpansions int
	// MaxSearchTime is a hard deadline on the search's simulated elapsed
	// time (Expanded·TimePerChild bookkeeping, so it stays deterministic
	// at any Workers setting). When hit, the best candidate found so far
	// is returned and the result is marked Truncated. Zero disables it;
	// the Self-Aware deadline (2× the delay budget) usually fires first.
	MaxSearchTime time.Duration
	// ShapingFraction controls how strongly the search discounts its
	// cost-to-go by §IV-B's weighted Euclidean distance to the ideal
	// configuration: traversing the entire root-to-ideal distance forfeits
	// this fraction of the potential gain (default 0.8; set negative to
	// disable). Values near 1 turn the search into greedy descent toward
	// c*. Both variants shape (a pure admissible bound degenerates into
	// near-exhaustive exploration); what distinguishes Self-Aware is the
	// width pruning, decision deadline, and expected-utility budget.
	ShapingFraction float64
	// EpsilonMargin terminates the search once the best candidate found is
	// within this fraction of the theoretical utility upper bound
	// (default 0.01). The admissible heuristic makes shallow intermediates
	// look marginally better than any reachable candidate, so exact A*
	// degenerates into near-exhaustive search — precisely the blow-up
	// §IV-B describes; the margin bounds that tail for the naive search
	// without affecting which plan wins by more than ε.
	EpsilonMargin float64
	// Workers bounds the goroutines pre-solving the steady states of an
	// expansion's surviving children (default min(GOMAXPROCS, 8); 1 solves
	// each when it is popped). Children are staged and priced serially —
	// one costs well under a microsecond, less than handing it to another
	// goroutine — so the plan, pruning, and self-aware accounting are
	// identical at every setting; only wall-clock time and the evaluator's
	// hit/miss split change. The simulated decision-making time
	// (TimePerChild per child) deliberately ignores Workers: it models the
	// paper's single controller host.
	Workers int
	// Provenance enables the search flight recorder: the returned
	// SearchResult carries a bounded provenance.SearchDigest (expanded
	// vertices with f/g/h, pruning events with reasons, termination, the
	// chosen plan's Eq. 3 ledger, and the top rejected frontier
	// alternatives). False — the default — costs one nil check per
	// expansion and leaves results bit-identical to an uninstrumented
	// search.
	Provenance bool
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.PruneFraction <= 0 || o.PruneFraction > 1 {
		o.PruneFraction = 0.05
	}
	if o.PruneMinKeep <= 0 {
		o.PruneMinKeep = 6
	}
	if o.DelayFraction <= 0 {
		o.DelayFraction = 0.05
	}
	if o.TimePerChild <= 0 {
		o.TimePerChild = 250 * time.Microsecond
	}
	if o.SearchWatts <= 0 {
		o.SearchWatts = 67
	}
	if o.MaxExpansions <= 0 {
		o.MaxExpansions = 2500
	}
	if o.EpsilonMargin <= 0 {
		o.EpsilonMargin = 0.01
	}
	switch {
	case o.ShapingFraction == 0:
		o.ShapingFraction = 0.8
	case o.ShapingFraction < 0:
		o.ShapingFraction = 0
	case o.ShapingFraction > 1:
		o.ShapingFraction = 1
	}
	o.Workers = par.Workers(o.Workers)
	return o
}

// ExpectedUtility carries the controller's pessimistic estimate UH of the
// utility a control window should deliver, with the rates used to decay it
// during the search (Algorithm 1's URT_H and Upwr_H, in dollars/second).
type ExpectedUtility struct {
	Total    float64 // UH, dollars over the window
	PerfRate float64
	PwrRate  float64 // non-positive
}

// SearchResult is a completed search.
type SearchResult struct {
	// Plan is the optimal action sequence (possibly empty: stay put).
	Plan []cluster.Action
	// Utility is Eq. 3 evaluated for the plan over the control window.
	Utility float64
	// SearchTime is the simulated decision-making time.
	SearchTime time.Duration
	// SearchCost is the dollar cost of the decision itself: power drawn by
	// the controller host over SearchTime.
	SearchCost float64
	// Expanded counts vertex expansions; Generated counts children created.
	Expanded, Generated int
	// Pruned reports whether Self-Aware pruning fired.
	Pruned bool
	// Truncated reports the expansion cap was hit (best-so-far returned).
	Truncated bool

	// Fields below exist so observability spans can be populated without
	// re-deriving search state.

	// PeakFrontier is the largest open-set size reached.
	PeakFrontier int
	// RootDistance is ConfigDistance from the starting configuration to
	// the ideal one (0 when they are equal).
	RootDistance float64
	// PrunedChildren counts children discarded by Self-Aware pruning.
	PrunedChildren int
	// Prov is the flight-recorder digest of this search; nil unless
	// SearchOptions.Provenance is set.
	Prov *provenance.SearchDigest
}

// vertex is a node in the search graph. It carries how it was reached — its
// parent, the staged action and the delta the action makes — and what the
// frontier needs to rank and deduplicate it (fingerprint, priority, distance
// to the ideal), but no configuration: cfg is built from the parent's when
// the vertex is popped for expansion (materialize), which ≈ 1 in 25 frontier
// vertices ever is. The plan is reconstructed on demand from the parent chain
// instead of being copied into every child.
type vertex struct {
	cfg      cluster.Config // zero until materialize
	fp       cluster.Fingerprint
	parent   *vertex        // expansion parent; nil at the root
	act      cluster.Action // action that produced this vertex from parent
	delta    cluster.Delta  // what act changes in parent's configuration
	dist     float64        // distance to the ideal configuration
	depth    int            // plan length (root: 0)
	dur      time.Duration  // total duration of plan
	accrued  float64        // utility accrued while executing plan, dollars
	utility  float64        // priority: accrued + remaining-window bound
	finished bool           // reached via the "null" action
}

// materialize builds the vertex's configuration as a copy-on-write clone of
// its parent's with the delta applied: only the map the delta touches is
// copied. The parent was expanded before it could have children, so its
// configuration exists, and expanded vertices are never recycled.
func (v *vertex) materialize() {
	if v.parent == nil {
		return // the root was given its configuration
	}
	v.cfg = v.parent.cfg.CloneShared()
	v.cfg.ApplyDelta(v.delta)
}

// planOf rebuilds the action sequence leading to v by walking the parent
// chain. Root (and finished-at-root) vertices yield a nil plan, matching
// the stay-put decision's representation.
func planOf(v *vertex) []cluster.Action {
	if v == nil || v.depth == 0 {
		return nil
	}
	plan := make([]cluster.Action, v.depth)
	for cur := v; cur != nil && cur.depth > 0; cur = cur.parent {
		plan[cur.depth-1] = cur.act
	}
	return plan
}

// child is one priced child of the vertex being expanded: what dedup,
// pruning and the heap need to know about staged[at] before (and mostly
// instead of) making it a vertex.
type child struct {
	at      int // index into the expansion's staged actions
	fp      cluster.Fingerprint
	dur     time.Duration
	accrued float64
	utility float64
	dist    float64 // distance to ideal, for pruning/shaping
}

type vertexHeap []*vertex

func (h vertexHeap) Len() int           { return len(h) }
func (h vertexHeap) Less(i, j int) bool { return h[i].utility > h[j].utility }
func (h vertexHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *vertexHeap) Push(x any)        { *h = append(*h, x.(*vertex)) }
func (h *vertexHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}

// Searcher runs adaptation searches against an evaluator, one at a time: the
// expansion scratch below is reused across expansions and searches.
type Searcher struct {
	eval *Evaluator
	opts SearchOptions

	// Expansion scratch. price holds the dense view of the vertex being
	// expanded — the generator, the candidate test, child pricing and the
	// distance terms all read that one load — dist the ideal and the
	// parent's distance terms, staged the generator's output and kids the
	// children that fit the window; order and warm index and collect the
	// survivors.
	price  pricer
	dist   distancer
	staged []cluster.Staged
	kids   []child
	order  []int
	warm   []*vertex

	// vpool recycles search vertices across expansions and searches.
	// Stale duplicates popped from the frontier were never expanded, so
	// nothing references them and they return to the pool immediately.
	vpool sync.Pool

	// Observability sinks, resolved at construction (see obs.SetDefault)
	// and rebindable with SetObserver. All are nil-safe no-ops when
	// observability is disabled.
	log         *slog.Logger
	tr          *obs.Tracer
	cInvoked    *obs.Counter
	cExpanded   *obs.Counter
	cGenerated  *obs.Counter
	cPruned     *obs.Counter
	cTruncated  *obs.Counter
	hExpansions *obs.Histogram
	hSearchMS   *obs.Histogram
	hBatch      *obs.Histogram
	gWorkers    *obs.Gauge

	// Trace context for expansion-batch events: tc identifies the
	// window, tcName the owning controller (span-ID uniqueness across
	// parallel 1st-level searches), traceBase the search's virtual start
	// time (set by the controller each Decide). Observational only.
	tc        obs.TraceContext
	tcName    string
	traceBase time.Duration
}

// expandBatchEvery is how many expansions one "search:batch" trace
// event covers — coarse enough that a 2 500-expansion search stays
// under ~40 events, fine enough to localize a stall inside the search.
const expandBatchEvery = 64

// SetTrace installs the current window's trace context under the given
// controller name; subsequent searches emit "search:batch" events
// carrying the shared trace ID.
func (s *Searcher) SetTrace(tc obs.TraceContext, name string) {
	s.tc = tc
	s.tcName = name
}

// NewSearcher builds a searcher.
func NewSearcher(eval *Evaluator, opts SearchOptions) *Searcher {
	s := &Searcher{eval: eval, opts: opts.withDefaults()}
	s.price.e = eval
	s.vpool.New = func() any { return new(vertex) }
	s.SetObserver(obs.Default())
	return s
}

// getVertex draws a zeroed vertex from the pool.
func (s *Searcher) getVertex() *vertex {
	return s.vpool.Get().(*vertex)
}

// putVertex returns a vertex nothing references anymore. The struct is
// cleared so pooled vertices do not pin configuration maps or parents.
func (s *Searcher) putVertex(v *vertex) {
	*v = vertex{}
	s.vpool.Put(v)
}

// SetObserver rebinds the searcher's observability sinks (construction
// resolves the process default); pass nil to disable.
func (s *Searcher) SetObserver(o *obs.Observer) {
	s.log = o.Logger()
	s.tr = o.Tracer()
	s.cInvoked = o.Counter("search_invocations_total")
	s.cExpanded = o.Counter("search_expansions_total")
	s.cGenerated = o.Counter("search_generated_total")
	s.cPruned = o.Counter("search_pruned_children_total")
	s.cTruncated = o.Counter("search_truncated_total")
	s.hExpansions = o.Histogram("search_expansions", []float64{10, 50, 100, 250, 500, 1000, 2500})
	s.hSearchMS = o.Histogram("search_time_ms", []float64{1, 5, 10, 50, 100, 500, 1000, 5000})
	s.hBatch = o.Histogram("search_batch_children", []float64{1, 2, 4, 8, 16, 32, 64, 128})
	s.gWorkers = o.Gauge("search_workers")
}

// Search finds the action sequence maximizing Eq. 3 from configuration cfg
// under the given workload, control window cw, ideal configuration (the
// admissible cost-to-go), and action space. expected carries UH for the
// Self-Aware trigger; it is ignored by the naive search.
func (s *Searcher) Search(cfg cluster.Config, rates map[string]float64, cw time.Duration, ideal Ideal, expected ExpectedUtility, space cluster.ActionSpace) (SearchResult, error) {
	res, err := s.search(cfg, rates, cw, ideal, expected, space)
	if err == nil {
		s.record(res)
	}
	return res, err
}

// record flushes one completed search into the metrics registry.
func (s *Searcher) record(res SearchResult) {
	if s.cInvoked == nil {
		return
	}
	s.cInvoked.Inc()
	s.gWorkers.Set(float64(s.opts.Workers))
	s.cExpanded.Add(int64(res.Expanded))
	s.cGenerated.Add(int64(res.Generated))
	s.cPruned.Add(int64(res.PrunedChildren))
	if res.Truncated {
		s.cTruncated.Inc()
	}
	s.hExpansions.Observe(float64(res.Expanded))
	s.hSearchMS.Observe(float64(res.SearchTime) / float64(time.Millisecond))
}

func (s *Searcher) search(cfg cluster.Config, rates map[string]float64, cw time.Duration, ideal Ideal, expected ExpectedUtility, space cluster.ActionSpace) (SearchResult, error) {
	opts := s.opts
	cwSec := cw.Seconds()
	if cwSec <= 0 {
		return SearchResult{}, fmt.Errorf("core: non-positive control window %v", cw)
	}
	idealRate := ideal.Steady.NetRate()
	// One workload fingerprint for the whole search: every steady lookup
	// below shares it instead of re-fingerprinting the rates map per child.
	rfp := s.eval.RatesFingerprint(rates)

	// As in the paper: if the ideal configuration equals the current one,
	// no adaptation is worth considering.
	if ideal.Config.Equal(cfg) {
		st, err := s.eval.SteadyFP(cfg, rates, rfp)
		if err != nil {
			return SearchResult{}, err
		}
		res := SearchResult{Utility: cwSec * st.NetRate()}
		if opts.Provenance {
			res.Prov = newDigestBuilder(0).finalize(provenance.TermNoChange, &res,
				s.eval.PlanLedger(cfg, rates, cw, nil), nil)
		}
		return res, nil
	}

	remaining := func(d time.Duration) float64 {
		r := (cw - d).Seconds()
		if r < 0 {
			return 0
		}
		return r
	}

	// Distance shaping: the admissible bound (CW−D)·U* is identical for
	// every intermediate, so best-first search would wander plateaus of
	// near-free actions. The same weighted Euclidean distance §IV-B defines
	// for pruning is folded into the cost-to-go as a penalty scaled so that
	// traversing the full distance from the current configuration to the
	// ideal one forfeits opts.ShapingFraction of the potential gain (0.8 by
	// default — see SearchOptions.ShapingFraction). This grades the
	// frontier toward c* at the price of ε-bounded (rather than exact)
	// optimality.
	curRate := 0.0
	if st, err := s.eval.SteadyFP(cfg, rates, rfp); err == nil {
		curRate = st.NetRate()
	}
	// The expansion reads the popped vertex through one dense view (see
	// pricer): the workload, the ideal and the action space are resolved
	// against the catalog once per search, so that nothing below the load
	// of that view reads a string-keyed map.
	price, dc := &s.price, &s.dist
	view := &price.view
	price.setRates(rates)
	if err := dc.reset(s.eval.cat, ideal.Config); err != nil {
		return SearchResult{}, err
	}
	moves := space.Resolve(s.eval.cat)
	if !view.Load(s.eval.cat, cfg) {
		return SearchResult{}, fmt.Errorf("core: configuration does not fit the catalog")
	}
	rootDist := dc.load(view)
	var distWeight float64
	if gain := (idealRate - curRate) * cwSec; gain > 0 && rootDist > 1e-9 {
		distWeight = opts.ShapingFraction * gain / rootDist
	}

	root := &vertex{cfg: cfg, fp: cfg.Fingerprint(), dist: rootDist}
	root.utility = root.accrued + remaining(root.dur)*idealRate
	if distWeight > 0 {
		root.utility -= distWeight * rootDist
	}

	open := &vertexHeap{}
	heap.Init(open)
	heap.Push(open, root)
	bestByKey := map[cluster.Fingerprint]float64{root.fp: root.utility}

	res := SearchResult{RootDistance: rootDist, PeakFrontier: 1}
	var bestCandidate *vertex
	var dig *digestBuilder
	if opts.Provenance {
		dig = newDigestBuilder(rootDist)
	}
	dbg := s.log.Enabled(context.Background(), slog.LevelDebug)

	// Self-awareness state (Algorithm 1). The cost of searching has two
	// parts: the power the controller host burns (UpwrT) and the utility
	// forgone by lingering in the current configuration instead of an
	// expected-quality one while the search runs (UT). When their sum
	// reaches the expected utility UH of the coming window — or the delay
	// threshold T̄ passes — the search restricts its width. A system
	// bleeding utility therefore triggers restriction almost immediately:
	// deciding soon beats deciding optimally.
	searchRate := -s.eval.util.PowerRate(opts.SearchWatts) // $/s burned by searching
	uh := expected.Total
	var ut, upwrT float64
	var elapsed time.Duration
	curSteady, err := s.eval.SteadyFP(cfg, rates, rfp)
	if err != nil {
		return SearchResult{}, err
	}
	expectedRate := expected.PerfRate + expected.PwrRate
	forgoneRate := expectedRate - curSteady.NetRate()
	if forgoneRate < 0 {
		forgoneRate = 0 // a current config above expectations forgoes nothing
	}
	delayThreshold := time.Duration(float64(cw) * opts.DelayFraction)

	finish := func(v *vertex, term string) SearchResult {
		res.Plan = planOf(v)
		res.Utility = v.utility
		res.SearchTime = elapsed
		res.SearchCost = upwrT
		if dig != nil {
			res.Prov = dig.finalize(term, &res,
				s.eval.PlanLedger(cfg, rates, cw, res.Plan),
				harvestRejected(s.eval, open, bestByKey, v, cfg, rates, cw))
		}
		return res
	}

	// stayPut ends the search with no adaptation (the frontier drained or a
	// cap fired before any candidate was found): keep the current
	// configuration for the window.
	stayPut := func(term string) (SearchResult, error) {
		st, err := s.eval.SteadyFP(cfg, rates, rfp)
		if err != nil {
			return SearchResult{}, err
		}
		res.SearchTime = elapsed
		res.SearchCost = upwrT
		res.Utility = cwSec * st.NetRate()
		if dig != nil {
			res.Prov = dig.finalize(term, &res,
				s.eval.PlanLedger(cfg, rates, cw, nil),
				harvestRejected(s.eval, open, bestByKey, nil, cfg, rates, cw))
		}
		return res, nil
	}

	var batchStart time.Duration // virtual start of the current trace batch

	slack := opts.EpsilonMargin * (math.Abs(idealRate)*cwSec + 1e-9)
	for open.Len() > 0 {
		vmax := heap.Pop(open).(*vertex)
		if vmax.utility < bestByKey[vmax.fp]-1e-12 && !vmax.finished {
			// Stale duplicate: a better path to this configuration was
			// found after this vertex was pushed. It was never expanded, so
			// nothing references it and it can be recycled.
			s.putVertex(vmax)
			continue
		}
		if vmax.finished {
			return finish(vmax, provenance.TermGoal), nil
		}
		// ε-termination: the frontier's optimism has decayed to within the
		// margin of the best complete plan.
		if bestCandidate != nil && bestCandidate.utility >= vmax.utility-slack {
			// The popped head goes back on the heap first: it is the very
			// alternative the search declined to explore, and the rejected
			// digest should lead with it.
			if dig != nil {
				heap.Push(open, vmax)
			}
			return finish(bestCandidate, provenance.TermEpsilon), nil
		}
		// Self-aware deadline: once the search has run twice past its delay
		// budget it commits to the best complete plan found — a suboptimal
		// decision now beats an optimal one whose cost is never recouped
		// ("consuming power to save power").
		if opts.SelfAware && elapsed >= 2*delayThreshold && bestCandidate != nil {
			if dig != nil {
				heap.Push(open, vmax)
			}
			return finish(bestCandidate, provenance.TermDeadline), nil
		}
		if res.Expanded >= opts.MaxExpansions ||
			(opts.MaxSearchTime > 0 && elapsed >= opts.MaxSearchTime) {
			res.Truncated = true
			term := provenance.TermMaxExpansions
			if res.Expanded < opts.MaxExpansions {
				term = provenance.TermMaxSearchTime
			}
			if dig != nil {
				heap.Push(open, vmax)
			}
			if bestCandidate != nil {
				return finish(bestCandidate, term), nil
			}
			// No candidate seen: stay put.
			return stayPut(term)
		}
		res.Expanded++
		// Expansion-batch trace events: every expandBatchEvery expansions
		// close one "search:batch" span carrying the window's trace ID,
		// so a slow search localizes to a batch on the causal timeline.
		if s.tr != nil && s.tc.Enabled() && res.Expanded%expandBatchEvery == 0 {
			s.tr.Event("search:batch", s.traceBase+batchStart, s.traceBase+elapsed,
				s.tc.Attr(),
				obs.Attr{Key: "span", Value: s.tc.SpanID(s.tcName, "search", fmt.Sprintf("batch%04d", res.Expanded/expandBatchEvery))},
				obs.Attr{Key: "controller", Value: s.tcName},
				obs.Attr{Key: "expanded", Value: res.Expanded},
				obs.Attr{Key: "generated", Value: res.Generated},
				obs.Attr{Key: "frontier", Value: open.Len()})
			batchStart = elapsed
		}
		if dig != nil {
			dig.vertex(res.Expanded, vmax.depth, vmax.utility, vmax.accrued,
				vmax.dist, open.Len())
		}
		if dbg && res.Expanded%50 == 1 {
			s.log.Debug("search pop",
				"expanded", res.Expanded,
				"utility", vmax.utility,
				"depth", vmax.depth,
				"plan_dur", vmax.dur,
				"distance", vmax.dist,
				"accrued", vmax.accrued,
				"frontier", open.Len())
		}

		vmax.materialize()
		parentSteady, err := s.eval.SteadyFP(vmax.cfg, rates, rfp)
		if err != nil {
			return SearchResult{}, err
		}

		// Generate children: every feasible action plus "null" when the
		// configuration is a candidate. The popped configuration is loaded
		// into the dense view once — the last map reads of this expansion —
		// and everything per child reads arrays: the generator yields each
		// feasible action already staged (filled Action + Delta), the
		// transient is priced against the parent, and the child's distance
		// is the parent's term vector re-folded with the one changed term.
		// Nothing is built: a child is its parent plus a delta until it is
		// popped.
		if !price.setParent(vmax.cfg, parentSteady) {
			return SearchResult{}, fmt.Errorf("core: configuration does not fit the catalog")
		}
		dc.load(view)
		s.staged = view.Expand(&moves, s.staged[:0])
		var finChild *vertex
		if view.Candidate() {
			finChild = s.getVertex()
			*finChild = vertex{
				fp:       vmax.fp,
				parent:   vmax.parent,
				act:      vmax.act,
				dist:     vmax.dist,
				depth:    vmax.depth,
				dur:      vmax.dur,
				accrued:  vmax.accrued,
				finished: true,
			}
			finChild.utility = vmax.accrued + remaining(vmax.dur)*parentSteady.NetRate()
		}
		kids := s.kids[:0]
		for i := range s.staged {
			st := &s.staged[i]
			ac := price.cost(st.Act.Kind, int(st.VM), int(st.Host), -1)
			// A plan must fit the control window: actions past its end
			// would be charged against benefits the window cannot see —
			// when the current configuration is bleeding, arbitrarily long
			// plans would otherwise look free beyond the horizon.
			if vmax.dur+ac.Duration > cw {
				continue
			}
			k := child{
				at:      i,
				fp:      vmax.cfg.FingerprintWith(st.Delta),
				dur:     vmax.dur + ac.Duration,
				accrued: vmax.accrued + ac.Duration.Seconds()*ac.Rate,
				dist:    dc.child(view, st),
			}
			k.utility = k.accrued + remaining(k.dur)*idealRate
			if distWeight > 0 {
				k.utility -= distWeight * k.dist
			}
			kids = append(kids, k)
		}
		s.kids = kids
		nChildren := len(kids)
		if finChild != nil {
			nChildren++
		}
		res.Generated += nChildren
		s.hBatch.Observe(float64(nChildren))

		// order lists the surviving children as indices into kids (-1 is
		// the finished candidate), in the sequence they reach the heap:
		// generation order normally, distance-sorted order after a prune —
		// insertion order breaks heap ties.
		order := s.order[:0]
		if finChild != nil {
			order = append(order, -1)
		}
		for i := range kids {
			order = append(order, i)
		}

		// Self-aware accounting: charge the time spent producing this
		// expansion, then prune if the search has outspent its budget.
		t := time.Duration(nChildren) * opts.TimePerChild
		elapsed += t
		upwrT += t.Seconds() * searchRate
		ut += t.Seconds() * forgoneRate
		uh -= t.Seconds() * expectedRate
		if opts.SelfAware && ((ut+upwrT) >= uh || elapsed >= delayThreshold) {
			before := nChildren
			keep := int(math.Ceil(float64(nChildren) * opts.PruneFraction))
			if keep < opts.PruneMinKeep {
				keep = opts.PruneMinKeep
			}
			if keep < nChildren {
				// Keep the fraction closest to the ideal: the finished
				// candidate (distance -1) is never pruned, ties keep
				// generation order (stable sort).
				distAt := func(i int) float64 {
					if i < 0 {
						return -1
					}
					return kids[i].dist
				}
				sort.SliceStable(order, func(a, b int) bool { return distAt(order[a]) < distAt(order[b]) })
				order = order[:keep]
				nChildren = keep
			}
			res.PrunedChildren += before - nChildren
			res.Pruned = true
			if dig != nil && before > nChildren {
				// Algorithm 1 has two triggers; name the one that fired
				// (budget wins when both hold — it is the stronger signal).
				reason := provenance.ReasonDelayThreshold
				if (ut + upwrT) >= uh {
					reason = provenance.ReasonUtilityBudget
				}
				dig.event(res.Expanded, provenance.EventWidthPrune, reason, before-nChildren, elapsed)
			}
		}
		s.order = order[:0]

		warm := s.warm[:0]
		for _, i := range order {
			if i < 0 {
				if bestCandidate == nil || finChild.utility > bestCandidate.utility {
					bestCandidate = finChild
				}
				heap.Push(open, finChild)
				continue
			}
			k := &kids[i]
			if prev, seen := bestByKey[k.fp]; seen && k.utility <= prev {
				continue
			}
			bestByKey[k.fp] = k.utility
			// Pooled vertices arrive zeroed; filling the fields in place
			// spares a 300-byte temporary per survivor.
			st := &s.staged[k.at]
			v := s.getVertex()
			v.fp = k.fp
			v.parent = vmax
			v.act = st.Act
			v.delta = st.Delta
			v.dist = k.dist
			v.depth = vmax.depth + 1
			v.dur = k.dur
			v.accrued = k.accrued
			v.utility = k.utility
			heap.Push(open, v)
			warm = append(warm, v)
		}
		if open.Len() > res.PeakFrontier {
			res.PeakFrontier = open.Len()
		}
		// Pre-solve the steady states the coming expansions will look up,
		// in parallel: the per-pop LQN solve is the search's serial
		// bottleneck, and the memo cache turns these into hits. Each is
		// solved through its delta over the parent, under the key the
		// built child will have. Results are pure and errors are dropped —
		// a failing configuration fails identically when popped — so
		// decisions do not depend on this (only wall-clock time and cache
		// statistics do). Skipped at one worker, where it could only add
		// work.
		if opts.Workers > 1 && len(warm) > 1 {
			par.For(len(warm), opts.Workers, func(i int) {
				_, _ = s.eval.steadyOver(vmax.cfg, &warm[i].delta, rates, rfp)
			})
		}
		clear(warm) // do not pin vertices past the expansion
		s.warm = warm[:0]
	}

	// Open set exhausted without a finished vertex (tiny action spaces):
	// stay put.
	return stayPut(provenance.TermExhausted)
}
