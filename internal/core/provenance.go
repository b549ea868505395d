package core

import (
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/provenance"
)

// Bounds on the per-search flight-recorder digest. A 2h replay invokes the
// search hundreds of times; unbounded capture of a 2500-expansion search
// would dwarf the decisions it explains. The caps keep a record's digest a
// few tens of KiB while retaining the expansion prefix (where pruning and
// termination decisions are made) and counting what fell past the cap.
const (
	provMaxVertices = 256
	provMaxEvents   = 128
	provMaxRejected = 3
)

// digestBuilder accumulates one search's provenance.SearchDigest under the
// caps above. A nil builder is a valid disabled builder (the search
// constructs one only when SearchOptions.Provenance is set), so the hot
// path pays a nil check per expansion and nothing else.
type digestBuilder struct {
	d provenance.SearchDigest
}

func newDigestBuilder(rootDist float64) *digestBuilder {
	b := &digestBuilder{}
	b.d.RootDistance = rootDist
	return b
}

// vertex records one expanded vertex in pop order (bounded).
func (b *digestBuilder) vertex(seq, depth int, f, g, dist float64, frontier int) {
	if b == nil {
		return
	}
	if len(b.d.Vertices) >= provMaxVertices {
		b.d.DroppedVertices++
		return
	}
	b.d.Vertices = append(b.d.Vertices, provenance.VertexProv{
		Seq: seq, Depth: depth, F: f, G: g, H: f - g, Distance: dist, Frontier: frontier,
	})
}

// event records one pruning/deadline incident (bounded).
func (b *digestBuilder) event(expansion int, kind, reason string, dropped int, elapsed time.Duration) {
	if b == nil {
		return
	}
	if len(b.d.Events) >= provMaxEvents {
		b.d.DroppedEvents++
		return
	}
	b.d.Events = append(b.d.Events, provenance.EventProv{
		Expansion: expansion, Kind: kind, Reason: reason, Dropped: dropped, ElapsedSec: elapsed.Seconds(),
	})
}

// finalize stamps the termination reason and the completed SearchResult's
// statistics into the digest and returns it. chosen is the Eq. 3 ledger of
// the winning plan; rejected the harvested frontier alternatives.
func (b *digestBuilder) finalize(term string, res *SearchResult, chosen provenance.PlanLedger, rejected []provenance.Alternative) *provenance.SearchDigest {
	if b == nil {
		return nil
	}
	b.d.Termination = term
	b.d.Utility = res.Utility
	b.d.SearchTimeSec = res.SearchTime.Seconds()
	b.d.SearchCostDollars = res.SearchCost
	b.d.Expanded = res.Expanded
	b.d.Generated = res.Generated
	b.d.PrunedChildren = res.PrunedChildren
	b.d.PeakFrontier = res.PeakFrontier
	b.d.Truncated = res.Truncated
	b.d.Chosen = chosen
	b.d.Rejected = rejected
	return &b.d
}

// rejectedCand is one open vertex competing for a place among the rejected
// alternatives. Its plan string — one fmt.Sprintf per action — is rendered
// only if the ranking ever needs it.
type rejectedCand struct {
	id   int32
	v    *vertex
	plan string
	drew bool
}

func (c *rejectedCand) planString(m *searchMem) string {
	if !c.drew {
		c.plan, c.drew = cluster.PlanString(m.planOf(c.id)), true
	}
	return c.plan
}

// before reports whether c ranks strictly ahead of o: priority descending,
// then depth ascending, then plan string ascending. Ties on utility and
// depth are common — interchangeable hosts give equal utilities — and are
// the only case that renders plan strings.
func (c *rejectedCand) before(o *rejectedCand, m *searchMem) bool {
	if c.v.utility != o.v.utility {
		return c.v.utility > o.v.utility
	}
	if c.v.depth != o.v.depth {
		return c.v.depth < o.v.depth
	}
	return c.planString(m) < o.planString(m)
}

// harvestRejected digests the best alternatives still open when the search
// committed: the plans it would have explored next. chosen (an arena index;
// -1: none) is excluded, stale duplicates (superseded by a better path to
// the same configuration) are skipped, and the survivors are ranked
// best-first with a deterministic tie-break: priority desc, depth asc, plan
// string asc, then frontier order. The frontier holds thousands of vertices
// and only provMaxRejected are kept, so one pass inserts each into a sorted
// top list instead of rendering and sorting them all.
func harvestRejected(e *Evaluator, m *searchMem, chosen int32, root cluster.Config, rates map[string]float64, cw time.Duration) []provenance.Alternative {
	var top [provMaxRejected]rejectedCand
	n := 0
	for _, open := range m.open {
		if open.vertex == chosen {
			continue
		}
		v := m.verts.at(open.vertex)
		if m.stale(v) {
			continue // a better path to this config exists
		}
		c := rejectedCand{id: open.vertex, v: v}
		// A vertex that ties a kept one on everything stays behind it:
		// frontier order is the last key.
		at := n
		for at > 0 && c.before(&top[at-1], m) {
			at--
		}
		if at == provMaxRejected {
			continue
		}
		if n < provMaxRejected {
			n++
		}
		copy(top[at+1:n], top[at:n-1])
		top[at] = c
	}
	out := make([]provenance.Alternative, 0, n)
	for _, c := range top[:n] {
		out = append(out, provenance.Alternative{
			Depth:    int(c.v.depth),
			F:        c.v.utility,
			G:        c.v.accrued,
			H:        c.v.utility - c.v.accrued,
			Distance: c.v.dist,
			Complete: c.v.finished,
			Ledger:   e.PlanLedger(root, rates, cw, m.planOf(c.id)),
		})
	}
	return out
}
