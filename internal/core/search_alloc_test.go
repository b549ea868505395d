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
// expansion of a cold Self-Aware search (measured: 2.1 on 2 apps, 2.0 on 4,
// where a Steady that held a response-time map read 3.1 and 3.0; the bound
// leaves ≈ 30 % for collections that empty a pool mid-sweep). What an
// expansion may allocate is the popped vertex's steady-state cache entry
// (the Steady and its dense response times); the vertex itself is loaded
// from its parent's dense state and builds no configuration. The arena's
// chunks and the backing arrays of the frontier, the dedup table, the
// expanded vertices' dense states and the kept children come back from
// searchPool; they are allocated only when a search outgrows every earlier
// one. Nothing per generated child, and nothing per surviving one.
const searchAllocCeiling = 2.7

// searchReuseCeiling is the committed bound on bytes allocated per expansion
// by a search whose evaluator memo is warm (measured: 80 on 2 apps, 84 on 4;
// when each popped vertex built its configuration it was 665 and 1 319, and
// with the search's memory allocated per search 2 944 and 4 063).
const searchReuseCeiling = 200

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
				t.Errorf("search allocates %.1f times per expansion, ceiling %.1f", per, searchAllocCeiling)
			}
		})
	}
}

// TestSearchReusesItsMemory is the third memory gate: a search refills the
// memory an earlier one returned to searchPool. With the evaluator's memo
// warm, a repeat of the ceiling's sweep allocates what its searches report,
// not the arena, the frontier, the dedup table or the dense states. The
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
			// One P, as testing.AllocsPerRun measures: sync.Pool keeps its
			// memory per P, and a goroutine moved to another P between two
			// searches would be handed that P's, not what the last search
			// returned (1 run in 20 read 521 bytes instead of 80 at two Ps).
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
// a search keeps per frontier vertex, per expanded vertex, per kept child or
// per dedup entry may hold a pointer — the arena, the frontier, the dense
// states and the dedup table are then allocated as no-scan spans and a
// 75 000-vertex search costs the collector nothing to mark — and the two
// records stay inside their size budgets.
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
	walk("entrySlot", reflect.TypeOf(entrySlot{}))
	walk("cluster.Staged", reflect.TypeOf(cluster.Staged{}))
	walk("kept", reflect.TypeOf(kept{}))
	// states is slices of an expanded vertex's arrays: their elements.
	st := reflect.TypeOf(states{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type.Kind() == reflect.Slice {
			walk("states."+f.Name+"[]", f.Type.Elem())
		} else {
			walk("states."+f.Name, f.Type)
		}
	}
	if n := unsafe.Sizeof(cluster.Staged{}); n > 64 {
		t.Errorf("cluster.Staged is %d bytes, budget 64", n)
	}
	if n := unsafe.Sizeof(vertex{}); n > 144 {
		t.Errorf("vertex is %d bytes, budget 144", n)
	}
}

// TestSearchReleasesItsMemory is the second: everything sized by a search
// goes back to searchPool when it returns — the dense states of its expanded
// vertices among it — and the pool lets the collector have it. A
// 2 000-expansion Naive search on the two-zone DVFS lab holds ≈ 90 000
// vertices (≈ 13 MB with the frontier and the dedup table); two
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
	// One P, so that the pool hands back the memory the search returned
	// (see TestSearchReusesItsMemory).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
	if !raceEnabled { // the race detector's pool drops what it is given
		// The search gave its memory back emptied: the dense state of every
		// vertex it expanded, in the pooled slices, kept for the next one.
		m := searchPool.Get().(*searchMem)
		ss := &m.states
		if ss.n != 0 || len(ss.vmHost)+len(ss.vmCPU)+len(ss.hostOn)+len(ss.hostFreq)+len(m.kept) != 0 {
			t.Errorf("released search memory holds %d states, %d kept children", ss.n, len(m.kept))
		}
		if cap(ss.hostOn) < res.Expanded*len(e.cat.HostNames()) || cap(ss.vmCPU) < res.Expanded*len(e.cat.VMIDs()) {
			t.Errorf("pooled states hold %d host and %d VM entries; the search expanded %d vertices",
				cap(ss.hostOn), cap(ss.vmCPU), res.Expanded)
		}
		searchPool.Put(m)
	}
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
