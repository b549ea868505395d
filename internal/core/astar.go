package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
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
	// TimePerChild is the simulated decision-making time charged per
	// generated child vertex; it makes self-awareness deterministic
	// (default 250 µs, calibrated to the paper's search durations).
	TimePerChild time.Duration
	// MaxExpansions bounds the number of vertex expansions as a safety
	// valve (default 2500). When hit, the best candidate found so far is
	// returned.
	MaxExpansions int
	// Deprecated: Workers is ignored; it remains only because bench/ sets it.
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
	if o.TimePerChild <= 0 {
		o.TimePerChild = 250 * time.Microsecond
	}
	if o.MaxExpansions <= 0 {
		o.MaxExpansions = 2500
	}
	return o
}

const (
	// pruneMinKeep floors the pruned width: a beam of one or two children
	// collapses into already-visited configurations and drains the frontier
	// before any plan is found.
	pruneMinKeep = 6
	// delayFraction is the search delay threshold T̄ as a fraction of the
	// control window, the paper's 5%.
	delayFraction = 0.05
	// searchWatts is the power drawn by the controller host while searching;
	// the paper measures ≈12% over a 60 W idle host.
	searchWatts = 67
	// shapingFraction controls how strongly the search discounts its
	// cost-to-go by §IV-B's weighted Euclidean distance to the ideal
	// configuration: traversing the entire root-to-ideal distance forfeits
	// this fraction of the potential gain. Values near 1 turn the search
	// into greedy descent toward c*. Both variants shape (a pure admissible
	// bound degenerates into near-exhaustive exploration); what
	// distinguishes Self-Aware is the width pruning, decision deadline, and
	// expected-utility budget.
	shapingFraction = 0.8
	// epsilonMargin terminates the search once the best candidate found is
	// within this fraction of the theoretical utility upper bound. The
	// admissible heuristic makes shallow intermediates look marginally
	// better than any reachable candidate, so exact A* degenerates into
	// near-exhaustive search — precisely the blow-up §IV-B describes; the
	// margin bounds that tail for the naive search without affecting which
	// plan wins by more than ε.
	epsilonMargin = 0.01
)

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
	// RootDistance is the §IV-B weighted distance (see distancer) from the
	// starting configuration to the ideal one (0 when they are equal).
	RootDistance float64
	// PrunedChildren counts children discarded by Self-Aware pruning.
	PrunedChildren int
	// Prov is the flight-recorder digest of this search; nil unless
	// SearchOptions.Provenance is set.
	Prov *provenance.SearchDigest
}

// child is one child of the vertex being expanded, as far as the cut needs
// to know it: which staged action, the plan's duration, the distance to the
// ideal. Only the children the cut keeps are priced and fingerprinted.
type child struct {
	at   int // index into the expansion's staged actions
	dur  time.Duration
	dist float64 // distance to ideal, for pruning/shaping
}

// Test hooks, nil outside tests: called once per child an expansion prices,
// once per child it fingerprints and once per entry it pushes without a
// vertex.
var testHookPrice, testHookFingerprint, testHookVertexless func()

// closest returns the keep entries of order with the smallest dist, in the
// order a stable sort by dist would put them, reusing order's storage: each
// entry, in turn, goes behind every kept one at least as close. It selects
// the head without sorting the rest — sorting all ≈ 120 children of a 4-app
// expansion to keep 6 was a quarter of that search. dist is never NaN.
func closest(order []int, keep int, dist func(int) float64) []int {
	kept := order[:0] // slot i is read before anything is written to it
	for _, x := range order {
		d := dist(x)
		at := len(kept)
		for at > 0 && d < dist(kept[at-1]) {
			at--
		}
		if at == keep {
			continue
		}
		if len(kept) < keep {
			kept = append(kept, x)
		}
		copy(kept[at+1:], kept[at:len(kept)-1])
		kept[at] = x
	}
	return kept
}

// Searcher runs adaptation searches against an evaluator, one at a time: the
// expansion scratch below — sized by one expansion, not by the search — is
// reused across expansions and searches. What grows with a search lives in
// the searchMem it takes from searchPool and returns to it, never here.
type Searcher struct {
	eval *Evaluator
	opts SearchOptions

	// Expansion scratch. price holds the dense view of the vertex being
	// expanded — the generator, the candidate test, child pricing and the
	// distance terms all read that one load — dist the ideal and the
	// parent's distance terms, staged the generator's output and kids the
	// children that fit the window; order indexes the ones the cut keeps.
	price  pricer
	dist   distancer
	staged []cluster.Staged
	kids   []child
	order  []int

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

	// Trace context for expansion-batch events: tc identifies the
	// window, tcName the owning controller (span-ID uniqueness across
	// 1st-level searches), traceBase the search's virtual start
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
	s.SetObserver(obs.Default())
	return s
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
	// ideal one forfeits shapingFraction of the potential gain. This grades
	// the frontier toward c* at the price of ε-bounded (rather than exact)
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
		distWeight = shapingFraction * gain / rootDist
	}

	// mem goes back to the pool after the return values — the plan, the
	// digest's rejected alternatives — have been read out of it.
	mem := searchPool.Get().(*searchMem)
	defer mem.release()
	mem.cat = s.eval.cat
	mem.costs.reset(len(view.VMHost))
	rootID, root, err := mem.verts.alloc()
	if err != nil {
		return SearchResult{}, err
	}
	*root = vertex{fp: cfg.Fingerprint(), parent: -1, dist: rootDist, state: mem.states.save(view)}
	root.utility = root.accrued + remaining(root.dur)*idealRate
	if distWeight > 0 {
		root.utility -= distWeight * rootDist
	}
	mem.push(rootID, root)
	mem.best.improve(root.fp, root.utility)

	res := SearchResult{RootDistance: rootDist, PeakFrontier: 1}
	bestCandidate := int32(-1) // arena index of the best complete plan; -1: none yet
	var bestUtility float64    // its priority
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
	searchRate := -s.eval.util.PowerRate(searchWatts) // $/s burned by searching
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
	delayThreshold := time.Duration(float64(cw) * delayFraction)

	finish := func(id int32, term string) SearchResult {
		res.Plan = mem.planOf(id)
		res.Utility = mem.verts.at(id).utility
		res.SearchTime = elapsed
		res.SearchCost = upwrT
		if dig != nil {
			res.Prov = dig.finalize(term, &res,
				s.eval.PlanLedger(cfg, rates, cw, res.Plan),
				harvestRejected(s.eval, mem, id, cfg, rates, cw))
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
				harvestRejected(s.eval, mem, -1, cfg, rates, cw))
		}
		return res, nil
	}

	var batchStart time.Duration // virtual start of the current trace batch

	slack := epsilonMargin * (math.Abs(idealRate)*cwSec + 1e-9)
	for len(mem.open) > 0 {
		top := mem.open.pop()
		vmax := mem.verts.at(top.vertex)
		if mem.stale(vmax) {
			continue
		}
		if vmax.finished {
			return finish(top.vertex, provenance.TermGoal), nil
		}
		// ε-termination: the frontier's optimism has decayed to within the
		// margin of the best complete plan.
		if bestCandidate >= 0 && bestUtility >= vmax.utility-slack {
			// The popped head goes back on the heap first: it is the very
			// alternative the search declined to explore, and the rejected
			// digest should lead with it.
			if dig != nil {
				mem.open.push(top)
			}
			return finish(bestCandidate, provenance.TermEpsilon), nil
		}
		// Self-aware deadline: once the search has run twice past its delay
		// budget it commits to the best complete plan found — a suboptimal
		// decision now beats an optimal one whose cost is never recouped
		// ("consuming power to save power").
		if opts.SelfAware && elapsed >= 2*delayThreshold && bestCandidate >= 0 {
			if dig != nil {
				mem.open.push(top)
			}
			return finish(bestCandidate, provenance.TermDeadline), nil
		}
		if res.Expanded >= opts.MaxExpansions {
			res.Truncated = true
			if dig != nil {
				mem.open.push(top)
			}
			if bestCandidate >= 0 {
				return finish(bestCandidate, provenance.TermMaxExpansions), nil
			}
			// No candidate seen: stay put.
			return stayPut(provenance.TermMaxExpansions)
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
				obs.Attr{Key: "frontier", Value: len(mem.open)})
			batchStart = elapsed
		}
		if dig != nil {
			dig.vertex(res.Expanded, int(vmax.depth), vmax.utility, vmax.accrued,
				vmax.dist, len(mem.open))
		}
		if dbg && res.Expanded%50 == 1 {
			s.log.Debug("search pop",
				"expanded", res.Expanded,
				"utility", vmax.utility,
				"depth", vmax.depth,
				"plan_dur", vmax.dur,
				"distance", vmax.dist,
				"accrued", vmax.accrued,
				"frontier", len(mem.open))
		}

		// Load the popped vertex into the dense view. The root is there
		// already: the search loaded it at its start and pops it first. Any
		// other vertex is its parent's saved state plus its staged action,
		// and its own state is saved in turn for its children. Its steady
		// state is the window memo's entry under its fingerprint, solved
		// from the view on a miss. No map of a configuration is read.
		if vmax.parent >= 0 {
			mem.states.load(view, mem.cat, mem.verts.at(vmax.parent).state, &vmax.st)
			vmax.state = mem.states.save(view)
		}
		parentSteady, err := s.eval.steadyView(view, vmax.fp, rates, rfp)
		if err != nil {
			return SearchResult{}, err
		}
		price.setBase(parentSteady)
		dc.load(view)

		// Generate children: every feasible action plus "null" when the
		// configuration is a candidate; everything per child reads arrays.
		// Phase 1 measures every child the generator stages: its plan
		// duration (the action's cost-table entry, looked up once per
		// search), the control-window filter and its distance, the parent's
		// fold resumed at the one changed term. That is all the self-time
		// charge and the cut read. Phase 2 prices and fingerprints only the
		// children the cut keeps. Nothing is built: a child is its parent
		// plus a staged action until it is popped.
		s.staged = view.Expand(&moves, s.staged[:0])
		finished := view.Candidate()
		var finUtility float64
		if finished {
			finUtility = vmax.accrued + remaining(vmax.dur)*parentSteady.NetRate()
		}
		kids := s.kids[:0]
		for i := range s.staged {
			st := &s.staged[i]
			dur := vmax.dur + mem.costs.get(price, st).Duration
			// A plan must fit the control window: actions past its end
			// would be charged against benefits the window cannot see —
			// when the current configuration is bleeding, arbitrarily long
			// plans would otherwise look free beyond the horizon.
			if dur > cw {
				continue
			}
			kids = append(kids, child{at: i, dur: dur, dist: dc.child(view, st)})
		}
		s.kids = kids
		nChildren := len(kids)
		if finished {
			nChildren++
		}
		res.Generated += nChildren
		s.hBatch.Observe(float64(nChildren))

		// order lists the surviving children as indices into kids (-1 is
		// the finished candidate), in the sequence they reach the heap:
		// generation order normally, distance-sorted order after a prune —
		// insertion order breaks heap ties.
		order := s.order[:0]
		if finished {
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
			if keep < pruneMinKeep {
				keep = pruneMinKeep
			}
			if keep < nChildren {
				// Keep the fraction closest to the ideal: the finished
				// candidate (distance -1) is never pruned, ties keep
				// generation order.
				order = closest(order, keep, func(i int) float64 {
					if i < 0 {
						return -1
					}
					return kids[i].dist
				})
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

		// Phase 2 makes three passes over the kept children, in the cut's
		// order. The first prices and fingerprints them. The second reads
		// each one's home slot in the dedup table, so that those cache
		// misses — the table grows to megabytes beside a larger arena —
		// overlap instead of stalling one improve at a time. The third
		// deduplicates and keeps. Only independent work is reordered: what
		// is priced, fingerprinted and improved, and in which order, is not.
		ks := sized(mem.kept, len(order))
		mem.kept = ks
		for j, i := range order {
			if i < 0 {
				continue
			}
			k := &kids[i]
			st := &s.staged[k.at]
			ac := price.costEntry(mem.costs.get(price, st), int(st.VM), int(st.Host), -1)
			if testHookPrice != nil {
				testHookPrice()
			}
			fp := view.FingerprintWith(vmax.fp, st)
			if testHookFingerprint != nil {
				testHookFingerprint()
			}
			accrued := vmax.accrued + ac.Duration.Seconds()*ac.Rate
			utility := accrued + remaining(k.dur)*idealRate
			if distWeight > 0 {
				utility -= distWeight * k.dist
			}
			ks[j] = kept{fp: fp, accrued: accrued, utility: utility}
		}
		var probed uint32
		for j, i := range order {
			if i >= 0 {
				probed += mem.best.home(ks[j].fp)
			}
		}
		mem.probed += probed
		// The third pass pushes each child that survives the dedup with its
		// priority. One below the best complete plan's gets no vertex when no
		// digest will harvest the frontier: that plan pops first and ends the
		// search, so the entry can never pop. It is pushed all the same — at
		// equal priorities the heap's layout decides which vertex pops, and
		// on the Fig. 9 day two pops in five leave a live entry of equal
		// priority behind.
		for j, i := range order {
			if i < 0 {
				if bestCandidate >= 0 && dig == nil && finUtility < bestUtility {
					mem.pushVertexless(finUtility)
					continue
				}
				id, fin, err := mem.verts.alloc()
				if err != nil {
					return SearchResult{}, err
				}
				*fin = *vmax
				fin.finished = true
				fin.utility = finUtility
				if bestCandidate < 0 || finUtility > bestUtility {
					bestCandidate, bestUtility = id, finUtility
				}
				mem.push(id, fin)
				continue
			}
			c := &ks[j]
			if !mem.best.improve(c.fp, c.utility) {
				continue
			}
			if bestCandidate >= 0 && dig == nil && c.utility < bestUtility {
				mem.pushVertexless(c.utility)
				continue
			}
			k := &kids[i]
			id, v, err := mem.verts.alloc()
			if err != nil {
				return SearchResult{}, err
			}
			*v = vertex{
				fp:      c.fp,
				st:      s.staged[k.at],
				parent:  top.vertex,
				depth:   vmax.depth + 1,
				dist:    k.dist,
				dur:     k.dur,
				accrued: c.accrued,
				utility: c.utility,
			}
			mem.push(id, v)
		}
		if len(mem.open) > res.PeakFrontier {
			res.PeakFrontier = len(mem.open)
		}
	}

	// Open set exhausted without a finished vertex (tiny action spaces):
	// stay put.
	return stayPut(provenance.TermExhausted)
}
