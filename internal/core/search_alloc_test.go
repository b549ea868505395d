package core

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// searchAllocCeiling is the committed bound on heap allocations per vertex
// expansion of a cold Self-Aware search (measured: 6.1 on 2 apps, 6.8 on 4;
// the bound leaves ≈ 30 % for collections that empty a pool mid-sweep).
// What an expansion may allocate is the popped vertex's configuration — the
// one map its staged change touches, copied on write — and its steady-state
// cache entry (the Steady and its response-time map). The arena's chunks and
// the backing arrays of the frontier, the dedup table and the
// expanded-configuration slice come back from searchPool; they are allocated
// only when a search outgrows every earlier one. Nothing per generated child,
// and nothing per surviving one.
const searchAllocCeiling = 9

// searchReuseCeiling is the committed bound on bytes allocated per expansion
// by a search whose evaluator memo is warm (measured: 665 on 2 apps, 1 319
// on 4; with the search's memory allocated per search it was 2 944 and
// 4 063).
const searchReuseCeiling = 2000

// allocSweep builds a Self-Aware searcher on a 2-app or 4-app environment
// and returns a function that runs it over a low-to-high sweep of workloads,
// each from the default configuration and from where the previous
// workload's ideal left the cluster, and returns the expansions made. cold
// empties the evaluator's memo before every search.
func allocSweep(t *testing.T, hosts, apps, maxExpansions int) func(cold bool) int {
	e := newEnv(t, hosts, apps)
	s := NewSearcher(e.eval, SearchOptions{SelfAware: true, MaxExpansions: maxExpansions})
	type window struct {
		rates map[string]float64
		ideal Ideal
	}
	var wins []window
	for _, r := range []float64{10, 25, 40, 55, 70, 85} {
		w := rates(e, r)
		ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wins = append(wins, window{w, ideal})
	}
	return func(cold bool) int {
		expanded := 0
		for i, win := range wins {
			for _, from := range []cluster.Config{e.cfg, wins[(i+len(wins)-1)%len(wins)].ideal.Config} {
				if cold {
					e.eval.BeginWindow()
				}
				res, err := s.Search(from, win.rates, 2*time.Hour, win.ideal, ExpectedUtility{}, cluster.ActionSpace{})
				if err != nil {
					t.Fatal(err)
				}
				expanded += res.Expanded
			}
		}
		if expanded < 100 {
			t.Fatalf("fixture too small: %d expansions", expanded)
		}
		return expanded
	}
}

var allocFixtures = []struct {
	name          string
	hosts, apps   int
	maxExpansions int
}{
	{"2apps", 4, 2, 2000},
	{"4apps", 8, 4, 600},
}

// TestSearchAllocationCeiling makes DESIGN.md §9's rule executable: Self-Aware
// searches from an empty evaluator cache, over a low-to-high sweep of
// workloads on the 2-app and 4-app environments, stay under the ceiling per
// expansion.
func TestSearchAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under the race detector")
	}
	for _, fx := range allocFixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			sweep := allocSweep(t, fx.hosts, fx.apps, fx.maxExpansions)
			expanded := 0
			allocs := testing.AllocsPerRun(2, func() { expanded = sweep(true) })
			per := allocs / float64(expanded)
			t.Logf("%.0f allocations over %d expansions: %.1f each", allocs, expanded, per)
			if per > searchAllocCeiling {
				t.Errorf("search allocates %.1f times per expansion, ceiling %d", per, searchAllocCeiling)
			}
		})
	}
}

// TestSearchReusesItsMemory is the third memory gate: a search refills the
// memory an earlier one returned to searchPool. With the evaluator's memo
// warm, a repeat of the ceiling's sweep allocates what its expansions build
// — the popped vertices' copied-on-write configuration maps — and what its
// searches report, not the arena, the frontier or the dedup table. The
// collector is off while the repeat runs, so the pool cannot be emptied
// under it.
func TestSearchReusesItsMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under the race detector")
	}
	for _, fx := range allocFixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			sweep := allocSweep(t, fx.hosts, fx.apps, fx.maxExpansions)
			sweep(false) // fills the memo
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			sweep(false) // fills the pool
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			expanded := sweep(false)
			runtime.ReadMemStats(&after)
			per := float64(after.TotalAlloc-before.TotalAlloc) / float64(expanded)
			t.Logf("%d bytes over %d expansions: %.0f each", after.TotalAlloc-before.TotalAlloc, expanded, per)
			if per > searchReuseCeiling {
				t.Errorf("a warm search allocates %.0f bytes per expansion, ceiling %d", per, searchReuseCeiling)
			}
		})
	}
}

// TestSearchStateIsPointerFree is the first of the memory gates: nothing
// a search keeps per frontier vertex or per dedup entry may hold a pointer —
// the arena, the frontier and the dedup table are then allocated as no-scan
// spans and a 75 000-vertex search costs the collector nothing to mark — and
// the two records stay inside their size budgets.
func TestSearchStateIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("vertex", reflect.TypeOf(vertex{}))
	walk("frontierEntry", reflect.TypeOf(frontierEntry{}))
	walk("bestSlot", reflect.TypeOf(bestSlot{}))
	walk("cluster.Staged", reflect.TypeOf(cluster.Staged{}))
	if n := unsafe.Sizeof(cluster.Staged{}); n > 64 {
		t.Errorf("cluster.Staged is %d bytes, budget 64", n)
	}
	if n := unsafe.Sizeof(vertex{}); n > 144 {
		t.Errorf("vertex is %d bytes, budget 144", n)
	}
}

// TestSearchReleasesItsMemory is the second: everything sized by a search
// goes back to searchPool when it returns, and the pool lets the collector
// have it. A 2 000-expansion Naive search on the two-zone DVFS lab holds
// ≈ 90 000 vertices (≈ 13 MB with the frontier and the dedup table); two
// collections after it, with the Searcher still in use, the live heap is
// back to where it was — a daemon's resting heap does not remember its
// largest search.
func TestSearchReleasesItsMemory(t *testing.T) {
	var e *env
	for _, de := range diffEnvs(t) {
		if de.name == "2apps-dvfs-2zones" {
			e = de.e
		}
	}
	const expansions = 2000
	opts := SearchOptions{MaxExpansions: expansions}
	s := NewSearcher(e.eval, opts)
	liveHeap := func() uint64 {
		e.eval.BeginWindow() // the evaluator's memo is per window, not per search
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	search := func(s *Searcher, load float64) SearchResult {
		w := rates(e, load)
		ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Search(e.cfg, w, 2*time.Hour, ideal, ExpectedUtility{}, cluster.ActionSpace{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// What the long search grows outside the Searcher — the emptied memo's
	// buckets, pooled solver scratch — is grown by another Searcher first;
	// the one measured has run a short search only, so its scratch, sized by
	// an expansion, is all it may hold afterwards.
	search(NewSearcher(e.eval, opts), 70)
	if small := search(s, 10); small.Expanded > 50 {
		t.Fatalf("warm-up search took %d expansions", small.Expanded)
	}
	before := liveHeap()
	res := search(s, 70)
	after := liveHeap()
	if res.Expanded < expansions || res.PeakFrontier < 10000 {
		t.Fatalf("fixture too small: %d expansions, peak frontier %d", res.Expanded, res.PeakFrontier)
	}
	if grown := int64(after) - int64(before); grown > 64<<10 {
		t.Errorf("live heap grew %d bytes across a %d-expansion search (peak frontier %d)", grown, res.Expanded, res.PeakFrontier)
	}
	runtime.KeepAlive(s)
}

// TestArenaFailsClosed: vertex indices are int32, and a search that would
// need one more than fits gets an error, not an index that wrapped around.
func TestArenaFailsClosed(t *testing.T) {
	var a arena
	if id, v, err := a.alloc(); err != nil || id != 0 || v == nil {
		t.Fatalf("first alloc = %d, %v, %v", id, v, err)
	}
	a.n = math.MaxInt32
	if _, _, err := a.alloc(); !errors.Is(err, errArenaFull) {
		t.Fatalf("alloc past MaxInt32 vertices: %v", err)
	}
	// Indices map onto chunks without gaps or overlaps across the doubling
	// region and into the fixed-size one.
	var b arena
	seen := map[*vertex]bool{}
	for i := 0; i < 3<<arenaMaxBits; i++ {
		id, v, err := b.alloc()
		if err != nil || id != int32(i) || seen[v] || b.at(id) != v {
			t.Fatalf("alloc %d = %d, %p (seen %t, at %p), %v", i, id, v, seen[v], b.at(id), err)
		}
		seen[v] = true
	}
	if got, want := len(b.chunks), arenaMaxBits-arenaFirstBits+1+2; got != want {
		t.Fatalf("%d vertices in %d chunks, want %d", 3<<arenaMaxBits, got, want)
	}
}
