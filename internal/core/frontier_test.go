package core

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// refHeap is the frontier as it was: container/heap over a
// slice, highest utility first. The typed frontier must perform the same
// comparisons and swaps, so that equal-priority pops and the backing slice's
// order — harvestRejected's last tie-break — cannot move.
type refHeap []frontierEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].utility > h[j].utility }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(frontierEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestFrontierHeapMatchesContainerHeap drives the frontier and the
// container/heap reference through the same random push/pop sequences —
// bursts of pushes as an expansion makes them, priorities drawn from a few
// values so most comparisons are ties — and requires the same pop order and,
// after every operation, the same backing slice.
func TestFrontierHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 5))
	ops, tiedPops := 0, 0
	for trial := 0; trial < 100; trial++ {
		var ref refHeap
		var sub frontier
		levels := 1 + rng.IntN(6) // distinct priorities in this trial
		if trial%4 == 3 {
			levels = 1 << 20 // almost no ties
		}
		next := int32(0)
		same := func(op string) {
			t.Helper()
			if len(sub) != len(ref) {
				t.Fatalf("trial %d after %s: %d entries, reference %d", trial, op, len(sub), len(ref))
			}
			for i, want := range ref {
				if got := sub[i]; got != want {
					t.Fatalf("trial %d after %s: slot %d holds %v, reference %v", trial, op, i, got, want)
				}
			}
		}
		for step := 0; step < 300; step++ {
			if len(ref) == 0 || rng.IntN(3) > 0 {
				for n := 1 + rng.IntN(8); n > 0; n-- {
					u := float64(rng.IntN(levels))
					heap.Push(&ref, frontierEntry{u, next})
					sub.push(frontierEntry{u, next})
					next++
					same("push")
				}
				continue
			}
			want := heap.Pop(&ref).(frontierEntry)
			if got := sub.pop(); got != want {
				t.Fatalf("trial %d step %d: popped %v, reference %v", trial, step, got, want)
			}
			if len(ref) > 0 && ref[0].utility == want.utility {
				tiedPops++
			}
			same("pop")
			ops++
		}
		for len(ref) > 0 { // drain
			want := heap.Pop(&ref).(frontierEntry)
			if got := sub.pop(); got != want {
				t.Fatalf("trial %d drain: popped %v, reference %v", trial, got, want)
			}
			if len(ref) > 0 && ref[0].utility == want.utility {
				tiedPops++
			}
			same("drain")
			ops++
		}
	}
	if ops < 10000 || tiedPops < ops/4 {
		t.Fatalf("fixture too weak: %d pops, %d of them with an equal priority left behind", ops, tiedPops)
	}
}

// TestBestTableMatchesMap holds the search's dedup table to the Go map it
// replaced: improve must answer what "seen and not higher: skip, else store"
// answered, and get what a map read returned, 0 on a miss. Rounds of random
// operations end in a reset, as searches do; half the keys share a few
// values of the indexing lane and differ only in the other, so probes run
// long and both lanes decide equality; some rounds grow the table through
// several doublings. Priorities are drawn from a few values, negative ones
// included, so ties are common.
func TestBestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 3))
	key := func() cluster.Fingerprint {
		if rng.IntN(2) == 0 {
			return cluster.Fingerprint{uint64(rng.IntN(16)), rng.Uint64()}
		}
		return cluster.Fingerprint{rng.Uint64(), rng.Uint64()}
	}
	var tb bestTable
	ref := map[cluster.Fingerprint]float64{}
	same := func(round int, fp cluster.Fingerprint) {
		t.Helper()
		if got, want := tb.get(fp), ref[fp]; got != want {
			t.Fatalf("round %d: get(%v) = %v, map %v", round, fp, got, want)
		}
	}
	skipped, maxSlots := 0, 0
	for round := 0; round < 300; round++ {
		keys := make([]cluster.Fingerprint, 1+rng.IntN(40))
		if round%25 == 0 {
			keys = make([]cluster.Fingerprint, 1000+rng.IntN(3000))
		}
		for i := range keys {
			keys[i] = key()
		}
		for step := 0; step < 3*len(keys); step++ {
			fp := keys[rng.IntN(len(keys))]
			u := float64(rng.IntN(7) - 3)
			prev, seen := ref[fp]
			want := !seen || u > prev
			if want {
				ref[fp] = u
			} else {
				skipped++
			}
			if got := tb.improve(fp, u); got != want {
				t.Fatalf("round %d: improve(%v, %v) = %t, map says %t", round, fp, u, got, want)
			}
			same(round, keys[rng.IntN(len(keys))])
			same(round, key()) // almost surely absent
		}
		for _, fp := range keys {
			same(round, fp)
		}
		if tb.n != len(ref) || 2*tb.n > len(tb.slots) {
			t.Fatalf("round %d: %d entries (map %d) in %d slots", round, tb.n, len(ref), len(tb.slots))
		}
		maxSlots = max(maxSlots, len(tb.slots))
		tb.reset()
		clear(ref)
		for _, fp := range keys {
			same(round, fp)
		}
	}
	if maxSlots < bestFirstSlots<<6 || skipped < 10000 {
		t.Fatalf("fixture too weak: at most %d slots, %d improvements refused", maxSlots, skipped)
	}

	// Wrap-around: a fresh table stamps its entries with generation 1, the
	// one that follows math.MaxUint32, so they must not outlive the wrap.
	tb = bestTable{}
	keys := make([]cluster.Fingerprint, 200)
	for i := range keys {
		keys[i] = key()
		tb.improve(keys[i], 1)
	}
	tb.gen = math.MaxUint32
	tb.reset()
	for _, fp := range keys {
		if got := tb.get(fp); got != 0 {
			t.Fatalf("after the generation wrapped, get(%v) = %v", fp, got)
		}
		if !tb.improve(fp, 0) {
			t.Fatalf("after the generation wrapped, improve(%v, 0) refused", fp)
		}
	}
}

// TestClosestMatchesStableSort holds the width prune's selection to the
// stable sort it replaced: on random distance vectors, most of them full of
// ties, for every keep from 0 past the length, the kept entries are the head
// of sort.SliceStable's result, in its order.
func TestClosestMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 2))
	for trial := 0; trial < 400; trial++ {
		n := rng.IntN(150)
		levels := 1 + rng.IntN(8)
		if trial%4 == 3 {
			levels = 1 << 20
		}
		dists := make([]float64, n)
		for i := range dists {
			dists[i] = float64(rng.IntN(levels))
		}
		dist := func(i int) float64 {
			if i < 0 {
				return -1 // the finished candidate
			}
			return dists[i]
		}
		order := make([]int, 0, n+1)
		if rng.IntN(2) == 0 {
			order = append(order, -1)
		}
		for i := range dists {
			order = append(order, i)
		}
		want := slices.Clone(order)
		sort.SliceStable(want, func(a, b int) bool { return dist(want[a]) < dist(want[b]) })
		for _, keep := range []int{0, 1, 6, len(order) / 2, len(order), len(order) + 3} {
			got := closest(slices.Clone(order), keep, dist)
			if !slices.Equal(got, want[:min(keep, len(want))]) {
				t.Fatalf("trial %d keep %d of %d:\n got %v\nwant %v", trial, keep, len(order), got, want[:min(keep, len(want))])
			}
		}
	}
}
