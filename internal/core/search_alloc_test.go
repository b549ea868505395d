package core

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// searchAllocCeiling is the committed bound on heap allocations per vertex
// expansion of a cold Self-Aware search: 1.5× what was measured when the
// expansion moved onto the dense view (17.9 on 2 apps, 19.6 on 4; the commit
// before allocated 140.5 and 263.8 on this fixture). What an expansion may
// allocate is what it keeps — the popped vertex's copy-on-write
// configuration, its steady-state cache entry, the surviving children's
// vertices, amortised growth of the frontier and the dedup map — and
// nothing per generated child.
const searchAllocCeiling = 30

// TestSearchAllocationCeiling makes DESIGN.md §9's rule executable: Self-Aware
// searches from an empty evaluator cache, over a low-to-high sweep of
// workloads on the 2-app and 4-app environments, stay under the ceiling per
// expansion.
func TestSearchAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under the race detector")
	}
	for _, fx := range []struct {
		name          string
		hosts, apps   int
		maxExpansions int
	}{
		{"2apps", 4, 2, 2000},
		{"4apps", 8, 4, 600},
	} {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			e := newEnv(t, fx.hosts, fx.apps)
			s := NewSearcher(e.eval, SearchOptions{SelfAware: true, MaxExpansions: fx.maxExpansions, Workers: 1})
			type window struct {
				rates map[string]float64
				ideal Ideal
			}
			var wins []window
			for _, r := range []float64{10, 25, 40, 55, 70, 85} {
				w := rates(e, r)
				ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				wins = append(wins, window{w, ideal})
			}
			expanded := 0
			allocs := testing.AllocsPerRun(2, func() {
				expanded = 0
				for i, win := range wins {
					// From the default configuration, and from where the
					// previous workload's ideal left the cluster.
					for _, from := range []cluster.Config{e.cfg, wins[(i+len(wins)-1)%len(wins)].ideal.Config} {
						e.eval.ResetCache()
						res, err := s.Search(from, win.rates, 2*time.Hour, win.ideal, ExpectedUtility{}, cluster.ActionSpace{})
						if err != nil {
							t.Fatal(err)
						}
						expanded += res.Expanded
					}
				}
			})
			if expanded < 100 {
				t.Fatalf("fixture too small: %d expansions", expanded)
			}
			per := allocs / float64(expanded)
			t.Logf("%.0f allocations over %d expansions: %.1f each", allocs, expanded, per)
			if per > searchAllocCeiling {
				t.Errorf("search allocates %.1f times per expansion, ceiling %d", per, searchAllocCeiling)
			}
		})
	}
}
