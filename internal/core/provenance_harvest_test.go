package core

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/provenance"
)

// referenceHarvest is harvestRejected as it was: render every live open
// vertex's plan string, stable-sort them all, keep the head.
func referenceHarvest(e *Evaluator, m *searchMem, chosen int32, root cluster.Config, rates map[string]float64, cw time.Duration) []provenance.Alternative {
	type cand struct {
		v       *vertex
		actions []cluster.Action
		plan    string
	}
	var cands []cand
	for _, open := range m.open {
		if open.vertex == chosen {
			continue
		}
		v := m.verts.at(open.vertex)
		if !v.finished && v.utility < m.best.get(v.fp)-1e-12 {
			continue
		}
		actions := m.planOf(open.vertex)
		cands = append(cands, cand{v: v, actions: actions, plan: cluster.PlanString(actions)})
	}
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.v.utility != b.v.utility {
			return a.v.utility > b.v.utility
		}
		if a.v.depth != b.v.depth {
			return a.v.depth < b.v.depth
		}
		return a.plan < b.plan
	})
	if len(cands) > provMaxRejected {
		cands = cands[:provMaxRejected]
	}
	out := make([]provenance.Alternative, 0, len(cands))
	for _, c := range cands {
		out = append(out, provenance.Alternative{
			Depth:    int(c.v.depth),
			F:        c.v.utility,
			G:        c.v.accrued,
			H:        c.v.utility - c.v.accrued,
			Distance: c.v.dist,
			Complete: c.v.finished,
			Ledger:   e.PlanLedger(root, rates, cw, c.actions),
		})
	}
	return out
}

// TestHarvestRejectedMatchesReference compares the one-pass top-3 selection
// with the collect-render-sort it replaced on 240 frontiers grown by real
// expansions from the default configuration, through the arena and the typed
// heap as the search grows them: feasible plans up to five actions deep,
// frontiers from empty to a few hundred vertices in heap order, stale
// duplicates, finished candidates, a head popped and pushed back as a
// committing search does, a chosen vertex on or off the frontier. A third of
// the frontiers draw their priorities from three values only, so utility
// ties, depth ties and — through siblings duplicated on the frontier — equal
// plan strings decide most ranks there, down to frontier order. (The search
// goldens pin the Rejected lists of real searches through their digests.)
func TestHarvestRejectedMatchesReference(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 40)
	cw := time.Hour
	moves := cluster.ActionSpace{}.Resolve(e.cat)
	rng := rand.New(rand.NewPCG(3, 11))
	var view, child cluster.View
	var staged []cluster.Staged
	ties, rendered, stale := 0, 0, 0
	for frontier := 0; frontier < 240; frontier++ {
		tieHeavy := frontier%3 == 0
		size := rng.IntN(300)
		if frontier < 4 {
			size = frontier // empty and below the cap
		}
		mem := &searchMem{cat: e.cat}
		alloc := func() (int32, *vertex) {
			id, v, err := mem.verts.alloc()
			if err != nil {
				t.Fatal(err)
			}
			return id, v
		}
		rootID, root := alloc()
		if !view.Load(e.cat, e.cfg) {
			t.Fatal("default configuration does not fit the catalog")
		}
		*root = vertex{fp: e.cfg.Fingerprint(), parent: -1, state: mem.states.save(&view)}
		nodes := []int32{rootID}
		for len(mem.open) < size {
			pid := nodes[rng.IntN(len(nodes))]
			parent := mem.verts.at(pid)
			if parent.depth >= 5 {
				continue
			}
			if parent.parent < 0 {
				view.Load(e.cat, e.cfg)
			} else {
				mem.states.load(&view, e.cat, mem.verts.at(parent.parent).state, &parent.st)
			}
			staged = view.Expand(&moves, staged[:0])
			// A handful of siblings per pick: interchangeable hosts make
			// their plans differ in one host name only.
			for n := 1 + rng.IntN(4); n > 0 && len(mem.open) < size; n-- {
				st := &staged[rng.IntN(len(staged))]
				id, v := alloc()
				*v = vertex{
					fp: view.FingerprintWith(parent.fp, st), st: *st, parent: pid,
					depth: parent.depth + 1, accrued: -rng.Float64(), dist: 10 * rng.Float64(),
					finished: rng.IntN(10) == 0,
				}
				v.utility = 100 * rng.Float64()
				if tieHeavy {
					v.utility = float64(1 + rng.IntN(3))
				}
				mem.states.load(&child, e.cat, parent.state, st)
				v.state = mem.states.save(&child) // so that it can parent later picks
				nodes = append(nodes, id)
				mem.push(id, v)
				if tieHeavy && rng.IntN(3) == 0 && len(mem.open) < size {
					dupID, dup := alloc() // the same plan reached twice
					*dup = *v
					mem.push(dupID, dup)
				}
				best := v.utility
				if rng.IntN(5) == 0 {
					best++ // superseded: stale
				}
				mem.best.improve(v.fp, best)
			}
		}
		if len(mem.open) > 0 && rng.IntN(2) == 0 {
			mem.open.push(mem.open.pop())
		}
		for _, open := range mem.open {
			if mem.stale(mem.verts.at(open.vertex)) {
				stale++
			}
		}
		chosen := int32(-1)
		switch {
		case len(mem.open) > 0 && rng.IntN(3) > 0:
			chosen = mem.open[rng.IntN(len(mem.open))].vertex
		case rng.IntN(2) == 0:
			chosen = nodes[rng.IntN(len(nodes))]
		}
		want := referenceHarvest(e.eval, mem, chosen, e.cfg, w, cw)
		got := harvestRejected(e.eval, mem, chosen, e.cfg, w, cw)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frontier %d (%d open): rejected lists differ\n got %+v\nwant %+v", frontier, len(mem.open), got, want)
		}
		for i := 1; i < len(want); i++ {
			if want[i].F == want[i-1].F && want[i].Depth == want[i-1].Depth {
				ties++
			}
		}
		for _, alt := range want {
			if alt.Ledger.Error == "" && len(alt.Ledger.Actions) > 0 {
				rendered++
			}
		}
	}
	if ties < 40 || rendered < 200 || stale < 1000 {
		t.Fatalf("fixture too weak: %d tie-decided ranks, %d replayed ledgers, %d stale open vertices", ties, rendered, stale)
	}
}
