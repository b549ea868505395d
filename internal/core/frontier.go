package core

import (
	"errors"
	"math"
	"math/bits"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// vertex is a node in the search graph. It carries how it was reached — its
// parent and the staged action, both as indices — and what the frontier needs
// to rank and deduplicate it (fingerprint, priority, distance to the ideal),
// but no configuration and no pointer: a search keeps ≈ 30 of them per
// expansion and pops 1 in 25, so they live in an arena the collector never
// scans. The configuration of a vertex that is expanded is built from its
// parent's then (searchMem.materialize) and kept beside the arena; names are
// rendered only for the plans a search reports.
type vertex struct {
	fp       cluster.Fingerprint
	st       cluster.Staged // action that produced this vertex from parent
	parent   int32          // arena index of the expansion parent; -1 at the root
	cfg      int32          // index into searchMem.cfgs once expanded
	depth    int32          // plan length (root: 0)
	finished bool           // reached via the "null" action
	dist     float64        // distance to the ideal configuration
	dur      time.Duration  // total duration of plan
	accrued  float64        // utility accrued while executing plan, dollars
	utility  float64        // priority: accrued + remaining-window bound
}

// The arena's chunks double from 64 vertices — a larger first chunk would
// cost the sub-millisecond searches of the 4-app lab more than their whole
// frontier — to 8192 (≈ 1 MB), and stay there.
const (
	arenaFirstBits = 6
	arenaMaxBits   = 13
)

// arena hands out vertices by index. Chunks are never moved or reused, so a
// *vertex stays valid for the life of the search that owns the arena.
type arena struct {
	chunks [][]vertex
	n      int32
}

var errArenaFull = errors.New("core: search needs more than math.MaxInt32 vertices")

// arenaSlot locates the i-th vertex. Offsetting the index by the first
// chunk's size puts chunk c at [2^(c+6), 2^(c+7)) while chunks double.
func arenaSlot(i int32) (chunk int, off uint32) {
	j := uint32(i) + 1<<arenaFirstBits
	if j < 1<<(arenaMaxBits+1) {
		b := bits.Len32(j) - 1
		return b - arenaFirstBits, j - 1<<b
	}
	j -= 1 << (arenaMaxBits + 1)
	return arenaMaxBits - arenaFirstBits + 1 + int(j>>arenaMaxBits), j & (1<<arenaMaxBits - 1)
}

func (a *arena) at(i int32) *vertex {
	c, off := arenaSlot(i)
	return &a.chunks[c][off]
}

// alloc returns the next vertex, zeroed, and its index.
func (a *arena) alloc() (int32, *vertex, error) {
	if a.n == math.MaxInt32 {
		return 0, nil, errArenaFull
	}
	c, off := arenaSlot(a.n)
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]vertex, 1<<min(c+arenaFirstBits, arenaMaxBits)))
	}
	a.n++
	return a.n - 1, &a.chunks[c][off], nil
}

// frontierEntry is one open vertex: its priority, copied out so that ordering
// the heap never touches the arena.
type frontierEntry struct {
	utility float64
	vertex  int32
}

// frontier is the open set, a binary max-heap on utility. push and pop make
// exactly the comparisons and swaps of container/heap's Push and Pop, which
// this replaced: equal priorities pop in the order they always did, and the
// slice order harvestRejected reads as its last tie-break is the same.
type frontier []frontierEntry

func (h *frontier) push(e frontierEntry) {
	*h = append(*h, e)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].utility > s[i].utility) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *frontier) pop() frontierEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].utility > s[j].utility {
			j = r
		}
		if !(s[j].utility > s[i].utility) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// searchMem is everything one search keeps that grows with the search: the
// vertex arena, the configurations of the expanded vertices, the frontier and
// the dedup map. The search allocates it and drops it when it returns —
// kept on the Searcher, a daemon's resting heap would hold the largest
// search it ever ran.
type searchMem struct {
	cat   *cluster.Catalog
	verts arena
	cfgs  []cluster.Config
	open  frontier
	// best is the highest priority seen per configuration.
	best map[cluster.Fingerprint]float64
}

func (m *searchMem) push(id int32, v *vertex) {
	m.open.push(frontierEntry{utility: v.utility, vertex: id})
}

// stale reports whether a better path to v's configuration was found after
// v was pushed.
func (m *searchMem) stale(v *vertex) bool {
	return !v.finished && v.utility < m.best[v.fp]-1e-12
}

// materialize builds the configuration of a vertex about to be expanded as a
// copy-on-write clone of its parent's with the staged change applied: only
// the map the change touches is copied. The parent was expanded before it
// could have children, so its configuration exists.
func (m *searchMem) materialize(v *vertex) cluster.Config {
	if v.parent < 0 {
		return m.cfgs[v.cfg] // the root was given its configuration
	}
	cfg := m.cfgs[m.verts.at(v.parent).cfg].CloneShared()
	cfg.ApplyDelta(v.st.Delta(m.cat))
	v.cfg = int32(len(m.cfgs))
	m.cfgs = append(m.cfgs, cfg)
	return cfg
}

// planOf rebuilds the action sequence leading to the vertex by walking the
// parent chain, rendering each staged action by name. Root (and
// finished-at-root) vertices and id -1 yield a nil plan, matching the
// stay-put decision's representation.
func (m *searchMem) planOf(id int32) []cluster.Action {
	if id < 0 {
		return nil
	}
	v := m.verts.at(id)
	if v.depth == 0 {
		return nil
	}
	plan := make([]cluster.Action, v.depth)
	for ; v.depth > 0; v = m.verts.at(v.parent) {
		plan[v.depth-1] = v.st.Action(m.cat)
	}
	return plan
}
