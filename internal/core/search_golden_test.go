package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
)

// goldenStride spaces the search goldens' windows: the first 30 windows of
// the traces are one quiet hour in which the ideal rarely moves (two searches
// in 120 decisions on the 2-app lab), so the goldens take every sixth window
// of the six and a half hours instead — ramps, both flash crowds and the
// consolidation phases.
const goldenStride = 6

// searchGolden replays goldenWindows windows of workload.PaperWorkloads(42, …),
// goldenStride apart, through Controller.Decide, once with the Self-Aware
// search and once with the Naive one. Each window consults two
// controllers the way the hierarchy does — a 2nd-level one over the full
// action space, then a 1st-level one confined to the first host group by
// ActionSpace.Kinds and ActionSpace.Hosts — applies their plans, and feeds
// the resulting steady state back as the window's realized utility. One line
// per decision: the plan, the bits of its utility, every search counter, the
// evaluator's hit/miss counts over the decide, and the sha256 of the JSON
// search digest (provenance is on, so the rejected alternatives, the vertex
// distances and the Eq. 3 ledgers are pinned too). Each hit and miss count
// is written twice, as hits=H/H misses=M/M: that is the committed files'
// format, kept so they need no regeneration.
func searchGolden(t *testing.T, opts experiments.LabOptions) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, naive := range []bool{false, true} {
		lab, err := experiments.NewLab(opts)
		if err != nil {
			t.Fatal(err)
		}
		eval, err := lab.NewEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		// The registry holds what BeginWindow flushed, CacheStats the rest:
		// their sum is the evaluator's cumulative hit/miss count.
		reg := obs.NewRegistry()
		o := &obs.Observer{Metrics: reg}
		lookups := func() (hits, misses int64) {
			st := eval.CacheStats()
			return reg.CounterValue("eval_cache_hits_total") + int64(st.Hits),
				reg.CounterValue("eval_cache_misses_total") + int64(st.Misses)
		}
		interval := lab.Util.MonitoringInterval
		// The cap keeps the Naive search, which otherwise runs to the
		// default 2500 expansions in a third of these windows, affordable
		// under -race.
		search := core.SearchOptions{SelfAware: !naive, MaxExpansions: 500}
		group := lab.HostGroups()[0]
		l2, err := core.NewController(eval, core.ControllerOptions{
			Name: "L2", Scope: core.ScopeFull, Search: search,
			MonitoringInterval: interval, Provenance: true, Obs: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		l1, err := core.NewController(eval, core.ControllerOptions{
			Name: "L1", Scope: core.ScopeSubset, Hosts: group,
			Space: cluster.ActionSpace{
				Kinds: []cluster.ActionKind{
					cluster.ActionIncreaseCPU, cluster.ActionDecreaseCPU,
					cluster.ActionMigrate, cluster.ActionSetDVFS,
				},
				Hosts: group,
			},
			Search: search, MonitoringInterval: interval, Provenance: true, Obs: o,
		})
		if err != nil {
			t.Fatal(err)
		}
		mode := "aware"
		if naive {
			mode = "naive"
		}
		// The 4-app lab spends ≈ 40 ms per decide in its Perf-Pwr ideal:
		// half the windows at twice the stride cover the same six hours.
		windows, stride := goldenWindows, goldenStride
		if opts.NumApps > 2 {
			windows, stride = goldenWindows/2, 2*goldenStride
		}
		cfg := lab.Initial
		for w := 0; w < windows; w++ {
			now := time.Duration(w*stride) * interval
			rates := lab.Traces.At(now)
			// One window boundary per control opportunity, owned by whoever
			// drives the controllers — here, as in strategy.Mistral.Decide.
			eval.BeginWindow()
			for _, c := range []*core.Controller{l2, l1} {
				h0, m0 := lookups()
				d, err := c.Decide(now, cfg, rates)
				if err != nil {
					t.Fatal(err)
				}
				h1, m1 := lookups()
				fmt.Fprintf(&out, "%s w=%02d %s hits=%d/%[4]d misses=%d/%[5]d ", mode, w, c.Name(), h1-h0, m1-m0)
				if d.Degraded {
					fmt.Fprintf(&out, "degraded=%q\n", d.DegradedReason)
					continue
				}
				sr := d.Search
				digest, err := json.Marshal(sr.Prov)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "util=%016x exp=%d gen=%d pruned=%d peak=%d time=%d trunc=%t prov=%x plan=%s\n",
					math.Float64bits(sr.Utility), sr.Expanded, sr.Generated, sr.PrunedChildren,
					sr.PeakFrontier, int64(sr.SearchTime), sr.Truncated,
					sha256.Sum256(digest), cluster.PlanString(sr.Plan))
				next, _, err := cluster.ApplyAll(lab.Cat, cfg, d.Plan)
				if err != nil {
					t.Fatal(err)
				}
				cfg = next
			}
			st, err := eval.Steady(cfg, rates)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []*core.Controller{l2, l1} {
				c.RecordWindow(interval.Seconds()*st.NetRate(), st.PerfRate, st.PowerRate)
			}
		}
	}
	return out.Bytes()
}

// TestSearchGolden pins the adaptation search to goldens generated from the
// commit before the dense-view expansion (8ac8825): plans, utility bits,
// expansion/generation/pruning counts, simulated search time and the
// provenance digests and the evaluator's hit/miss counts must repeat the file
// exactly. Regenerate with
// `go test ./internal/core/ -run TestSearchGolden -update` only when a change
// is meant to move decisions.
func TestSearchGolden(t *testing.T) {
	for _, lab := range goldenLabs {
		lab := lab
		t.Run(lab.name, func(t *testing.T) {
			got := searchGolden(t, lab.opts)
			path := filepath.Join("testdata", "search_"+lab.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			requireGolden(t, "search", got, want)
		})
	}
}
