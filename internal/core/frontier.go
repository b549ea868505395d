package core

import (
	"errors"
	"math"
	"math/bits"
	"sync"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// vertex is a node in the search graph. It carries how it was reached — its
// parent and the staged action, both as indices — and what the frontier needs
// to rank and deduplicate it (fingerprint, priority, distance to the ideal),
// but no configuration and no pointer: a search keeps ≈ 30 of them per
// expansion and pops 1 in 25, so they live in an arena the collector never
// scans. A vertex that is expanded is loaded from its parent's dense state
// and its staged action (cluster.View.LoadStaged), and its own dense state is
// kept beside the arena (searchMem.states) for its children; names are
// rendered only for the plans a search reports.
type vertex struct {
	fp       cluster.Fingerprint
	st       cluster.Staged // action that produced this vertex from parent
	parent   int32          // arena index of the expansion parent; -1 at the root
	state    int32          // index into searchMem.states once expanded
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

// arena hands out vertices by index. Chunks are never moved, so a *vertex
// stays valid for the life of the search that owns the arena; the next search
// to take the arena from searchPool refills them from index 0.
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

// alloc returns the next vertex, zeroed — a reused chunk still holds an
// earlier search's — and its index.
func (a *arena) alloc() (int32, *vertex, error) {
	if a.n == math.MaxInt32 {
		return 0, nil, errArenaFull
	}
	c, off := arenaSlot(a.n)
	if c == len(a.chunks) {
		a.chunks = append(a.chunks, make([]vertex, 1<<min(c+arenaFirstBits, arenaMaxBits)))
	}
	a.n++
	v := &a.chunks[c][off]
	*v = vertex{}
	return a.n - 1, v, nil
}

// frontierEntry is one open vertex: its priority, copied out so that ordering
// the heap never touches the arena. vertex is -1 for an entry that can never
// pop (see searchMem.pushVertexless).
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

// bestSlot is one entry of a bestTable: a configuration and the highest
// priority seen for it, live while gen is the table's generation.
type bestSlot struct {
	fp   cluster.Fingerprint
	util float64
	gen  uint32
}

// bestFirstSlots is the size of a bestTable's first slot array.
const bestFirstSlots = 64

// bestTable is the search's dedup: the highest priority seen per
// configuration, in an open-addressed, linear-probing table of pointer-free
// slots kept at most half full. A fingerprint lane is already a xor-fold of
// splitmix64 outputs, so its low bits index the table without another hash.
// Emptying the table bumps its generation rather than touching the slots, so
// a small search after a large one does not pay for the large one's table.
// Within a generation entries are only added, so a probe ends at the first
// slot of another generation. The zero value is empty and ready to use.
type bestTable struct {
	slots []bestSlot
	mask  uint64
	n     int    // live entries
	gen   uint32 // generation of the live entries; 0 only before the first grow
}

// get returns the priority stored for fp, 0 when there is none.
func (t *bestTable) get(fp cluster.Fingerprint) float64 {
	if len(t.slots) == 0 {
		return 0
	}
	for i := fp[0] & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			return 0
		}
		if s.fp == fp {
			return s.util
		}
	}
}

// home returns the generation stamped on fp's home slot. Reading it ahead of
// improve, for every child of an expansion in one loop, lets the cache misses
// of those first probes overlap instead of waiting one improve at a time.
// The table must have slots.
func (t *bestTable) home(fp cluster.Fingerprint) uint32 {
	return t.slots[fp[0]&t.mask].gen
}

// improve stores u as fp's priority unless one at least as high is already
// stored, and reports whether it did.
func (t *bestTable) improve(fp cluster.Fingerprint, u float64) bool {
	if 2*t.n >= len(t.slots) {
		t.grow()
	}
	for i := fp[0] & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = bestSlot{fp: fp, util: u, gen: t.gen}
			t.n++
			return true
		}
		if s.fp == fp {
			if u <= s.util {
				return false
			}
			s.util = u
			return true
		}
	}
}

// grow doubles the slot array and moves the live entries into it.
func (t *bestTable) grow() {
	old := t.slots
	t.slots = make([]bestSlot, max(2*len(old), bestFirstSlots))
	t.mask = uint64(len(t.slots) - 1)
	if t.gen == 0 {
		t.gen = 1 // fresh slots are generation 0: empty
	}
	for _, s := range old {
		if s.gen != t.gen {
			continue
		}
		i := s.fp[0] & t.mask
		for t.slots[i].gen != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// reset empties the table, keeping its slots. When the generation wraps
// around, slots stamped with the new one may still exist and are cleared.
func (t *bestTable) reset() {
	t.n = 0
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// states holds the dense state of every expanded vertex — the VMHost, VMCPU,
// HostOn and HostFreq arrays of its cluster.View, the ones LoadStaged starts
// a child from — back to back, one stride per vertex, in slices without a
// pointer: the collector never scans them.
type states struct {
	vmHost     []int32
	vmCPU      []float64
	hostOn     []bool
	hostFreq   []float64
	vms, hosts int   // the strides
	n          int32 // states saved
}

// save appends the view's state and returns its index.
func (s *states) save(v *cluster.View) int32 {
	s.vms, s.hosts = len(v.VMHost), len(v.HostOn)
	s.n++
	s.vmHost = append(s.vmHost, v.VMHost...)
	s.vmCPU = append(s.vmCPU, v.VMCPU...)
	s.hostOn = append(s.hostOn, v.HostOn...)
	s.hostFreq = append(s.hostFreq, v.HostFreq...)
	return s.n - 1
}

// load fills v with the configuration the staged action makes of the i-th
// saved state.
func (s *states) load(v *cluster.View, cat *cluster.Catalog, i int32, st *cluster.Staged) {
	vm, h := int(i)*s.vms, int(i)*s.hosts
	v.LoadStaged(cat, s.vmHost[vm:vm+s.vms], s.vmCPU[vm:vm+s.vms], s.hostOn[h:h+s.hosts], s.hostFreq[h:h+s.hosts], st)
}

func (s *states) reset() {
	s.n = 0
	s.vmHost, s.vmCPU = s.vmHost[:0], s.vmCPU[:0]
	s.hostOn, s.hostFreq = s.hostOn[:0], s.hostFreq[:0]
}

// kept is one child the width cut kept, priced and fingerprinted: phase 2 of
// an expansion fills one per kept child before it consults the dedup table.
type kept struct {
	fp      cluster.Fingerprint
	accrued float64
	utility float64
}

// searchMem is everything one search keeps that grows with the search: the
// vertex arena, the dense states of the expanded vertices, the frontier and
// the dedup table, with the cost entries the search looked up and the
// expansion's kept children. A search takes one from searchPool and puts it
// back, emptied but with its storage, when it returns: the next search
// refills the arena's chunks and the slices' backing arrays instead of
// allocating them. The collector empties the pool within two cycles, so a
// resting daemon's heap does not keep the largest search it ran, as it would
// if the Searcher held the memory.
type searchMem struct {
	cat    *cluster.Catalog
	verts  arena
	states states
	open   frontier
	// best is the highest priority seen per configuration.
	best bestTable
	// costs is the cost-table entry of each (kind, VM) the search prices.
	costs entryCache
	// kept is the expansion's kept children, aligned with the cut's order
	// (the finished candidate's entry unused); probed sums the generations
	// read from their home slots of best, so that the reads are not dropped.
	kept   []kept
	probed uint32
}

var searchPool = sync.Pool{New: func() any { return new(searchMem) }}

// release empties m and returns it to searchPool.
func (m *searchMem) release() {
	m.cat = nil
	m.verts.n = 0
	m.states.reset()
	m.open = m.open[:0]
	m.best.reset()
	m.kept = m.kept[:0]
	searchPool.Put(m)
}

func (m *searchMem) push(id int32, v *vertex) {
	m.open.push(frontierEntry{utility: v.utility, vertex: id})
}

// pushVertexless pushes a child whose priority is below the best complete
// plan's, without a vertex. That plan is on the heap above it, and popping it
// ends the search, so the entry never pops; it keeps its place in the heap so
// that the order of the entries that do pop is unchanged.
func (m *searchMem) pushVertexless(utility float64) {
	m.open.push(frontierEntry{utility: utility, vertex: -1})
	if testHookVertexless != nil {
		testHookVertexless()
	}
}

// stale reports whether a better path to v's configuration was found after
// v was pushed.
func (m *searchMem) stale(v *vertex) bool {
	return !v.finished && v.utility < m.best.get(v.fp)-1e-12
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
