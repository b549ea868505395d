package core

import (
	"testing"
)

// TestEvaluatorWindowLifecycle pins the memo's lifecycle: it dedups lookups
// inside one control window and BeginWindow (ResetCache is the same
// operation) empties it, so the first lookup of the next window solves again.
func TestEvaluatorWindowLifecycle(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 50)

	for _, b := range []struct {
		name     string
		boundary func()
	}{
		{"BeginWindow", e.eval.BeginWindow},
		{"ResetCache", e.eval.ResetCache},
	} {
		name, boundary := b.name, b.boundary
		for i := 0; i < 2; i++ {
			if _, err := e.eval.Steady(e.cfg, w); err != nil {
				t.Fatal(err)
			}
		}
		if st := e.eval.CacheStats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
			t.Fatalf("two lookups in one window: %+v, want 1 miss, 1 hit, 1 entry", st)
		}
		boundary()
		if st := e.eval.CacheStats(); st != (CacheStats{}) {
			t.Fatalf("after %s: %+v, want an empty memo and zeroed counters", name, st)
		}
		if _, err := e.eval.Steady(e.cfg, w); err != nil {
			t.Fatal(err)
		}
		if got := e.eval.Evals(); got != 1 {
			t.Fatalf("first lookup after %s: %d solves, want 1 (nothing carries across windows)", name, got)
		}
		boundary()
	}

	if _, err := e.eval.Steady(e.cfg, w); err != nil {
		t.Fatal(err)
	}
	// A workload outside the fingerprint band must miss even on a warm
	// memo; one inside the band (same 0.01 req/s bucket) must hit.
	w2 := rates(e, 50.004)
	if _, err := e.eval.Steady(e.cfg, w2); err != nil {
		t.Fatal(err)
	}
	if got := e.eval.Evals(); got != 1 {
		t.Fatalf("same-band workload re-solved (%d solves)", got)
	}
	w3 := rates(e, 51)
	if _, err := e.eval.Steady(e.cfg, w3); err != nil {
		t.Fatal(err)
	}
	if got := e.eval.Evals(); got != 2 {
		t.Fatalf("different workload did not solve (%d solves, want 2)", got)
	}

	// The struct key must distinguish configurations too.
	other := e.cfg.Clone()
	other.SetHostFreq(e.cat.HostNames()[0], 0.867)
	if _, err := e.eval.Steady(other, w3); err != nil {
		t.Fatal(err)
	}
	if got := e.eval.Evals(); got != 3 {
		t.Fatalf("different configuration did not solve (%d solves, want 3)", got)
	}
}

// TestBeginWindowKeepsBuckets pins the boundary's cost: the memo is emptied
// in place, so once a window has grown it a boundary allocates nothing (a
// fresh map re-grew every window: +3–10 % allocation per window on the
// benchmark replays).
func TestBeginWindowKeepsBuckets(t *testing.T) {
	e := newEnv(t, 4, 2)
	if _, err := PerfPwr(e.eval, rates(e, 50), PerfPwrOptions{}); err != nil {
		t.Fatal(err)
	}
	if st := e.eval.CacheStats(); st.Entries < 32 {
		t.Fatalf("warm-up left %d entries, want the memo grown past its first buckets", st.Entries)
	}
	if n := testing.AllocsPerRun(20, e.eval.BeginWindow); n != 0 {
		t.Fatalf("warmed BeginWindow allocates %v times, want 0", n)
	}
}
