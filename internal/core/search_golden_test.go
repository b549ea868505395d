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

// searchGoldenLine is one decision of the search golden: everything that
// must repeat at every Workers setting, and the evaluator's hit/miss counts,
// recorded per setting (equal now that the search is serial).
type searchGoldenLine struct {
	head, tail   string
	hits, misses int64
}

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
// distances and the Eq. 3 ledgers are pinned too).
func searchGolden(t *testing.T, opts experiments.LabOptions, workers int) []searchGoldenLine {
	t.Helper()
	var out []searchGoldenLine
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
		search := core.SearchOptions{SelfAware: !naive, Workers: workers, MaxExpansions: 500}
		group := lab.HostGroups()[0]
		l2, err := core.NewController(eval, core.ControllerOptions{
			Name: "L2", Scope: core.ScopeFull, Search: search,
			MonitoringInterval: interval, Workers: workers, Provenance: true, Obs: o,
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
			Search: search, MonitoringInterval: interval, Workers: workers,
			Provenance: true, Obs: o,
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
				line := searchGoldenLine{
					head: fmt.Sprintf("%s w=%02d %s", mode, w, c.Name()),
					hits: h1 - h0, misses: m1 - m0,
				}
				if d.Degraded {
					line.tail = fmt.Sprintf("degraded=%q", d.DegradedReason)
					out = append(out, line)
					continue
				}
				sr := d.Search
				digest, err := json.Marshal(sr.Prov)
				if err != nil {
					t.Fatal(err)
				}
				line.tail = fmt.Sprintf("util=%016x exp=%d gen=%d pruned=%d peak=%d time=%d trunc=%t prov=%x plan=%s",
					math.Float64bits(sr.Utility), sr.Expanded, sr.Generated, sr.PrunedChildren,
					sr.PeakFrontier, int64(sr.SearchTime), sr.Truncated,
					sha256.Sum256(digest), cluster.PlanString(sr.Plan))
				out = append(out, line)
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
	return out
}

// TestSearchGolden pins the adaptation search to goldens generated from the
// commit before the dense-view expansion (8ac8825): plans, utility bits,
// expansion/generation/pruning counts, simulated search time and the
// provenance digests must be the same at Workers 1 and 4 and repeat the file
// exactly. The file records the evaluator's hit/miss split at both settings
// as hits=W1/W4 misses=W1/W4; the search is serial, so the halves are equal
// (the Perf-Pwr sweep the controllers run first is what Workers still
// sizes). Regenerate with
// `go test ./internal/core/ -run TestSearchGolden -update` only when a change
// is meant to move decisions.
func TestSearchGolden(t *testing.T) {
	for _, lab := range goldenLabs {
		lab := lab
		t.Run(lab.name, func(t *testing.T) {
			w1 := searchGolden(t, lab.opts, 1)
			w4 := searchGolden(t, lab.opts, 4)
			if len(w1) != len(w4) {
				t.Fatalf("%d decisions at Workers 1, %d at Workers 4", len(w1), len(w4))
			}
			var got bytes.Buffer
			for i, a := range w1 {
				b := w4[i]
				if a.head != b.head || a.tail != b.tail {
					t.Fatalf("decision %d depends on Workers\n w1: %s %s\n w4: %s %s", i+1, a.head, a.tail, b.head, b.tail)
				}
				fmt.Fprintf(&got, "%s hits=%d/%d misses=%d/%d %s\n", a.head, a.hits, b.hits, a.misses, b.misses, a.tail)
			}
			path := filepath.Join("testdata", "search_"+lab.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			requireGolden(t, "workers 1 and 4", got.Bytes(), want)
		})
	}
}
