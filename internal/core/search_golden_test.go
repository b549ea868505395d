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

// searchReplay replays goldenWindows windows of
// workload.PaperWorkloads(42, …), goldenStride apart, through
// Controller.Decide, once with the Self-Aware search and once with the Naive
// one, and hands visit every decision with the evaluator's hit and miss
// counts over its decide. Each window consults two controllers the way the
// hierarchy does — a 2nd-level one over the full action space, then a
// 1st-level one confined to the first host group by ActionSpace.Kinds and
// ActionSpace.Hosts — applies their plans, and feeds the resulting steady
// state back as the window's realized utility. provenance turns both
// controllers' flight recorders on.
func searchReplay(t *testing.T, opts experiments.LabOptions, provenance bool,
	visit func(mode string, w int, controller string, hits, misses int64, d core.Decision)) {
	t.Helper()
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
			MonitoringInterval: interval, Provenance: provenance, Obs: o,
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
			Search: search, MonitoringInterval: interval, Provenance: provenance, Obs: o,
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
				visit(mode, w, c.Name(), h1-h0, m1-m0, d)
				if d.Degraded {
					continue
				}
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
}

// searchGolden renders searchReplay with provenance on, one line per
// decision: the plan, the bits of its utility, every search counter, the
// evaluator's hit/miss counts over the decide, and the sha256 of the JSON
// search digest (so the rejected alternatives, the vertex distances and the
// Eq. 3 ledgers are pinned too). Each hit and miss count is written twice,
// as hits=H/H misses=M/M: that is the committed files' format, kept so they
// need no regeneration.
func searchGolden(t *testing.T, opts experiments.LabOptions) []byte {
	t.Helper()
	var out bytes.Buffer
	searchReplay(t, opts, true, func(mode string, w int, controller string, hits, misses int64, d core.Decision) {
		fmt.Fprintf(&out, "%s w=%02d %s hits=%d/%[4]d misses=%d/%[5]d ", mode, w, controller, hits, misses)
		if d.Degraded {
			fmt.Fprintf(&out, "degraded=%q\n", d.DegradedReason)
			return
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
	})
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

// TestVertexlessSearchMatchesRecorded replays the search goldens' inputs with
// the flight recorder off, where a child below the best complete plan gets
// no vertex, and with it on, where every child keeps one: every search must
// report the same plan, utility bits, decision time and cost, and counters.
// The replay without the recorder must push vertex-less entries, or the
// comparison shows nothing.
func TestVertexlessSearchMatchesRecorded(t *testing.T) {
	for _, lab := range goldenLabs {
		lab := lab
		t.Run(lab.name, func(t *testing.T) {
			type searched struct {
				at string
				sr core.SearchResult
			}
			replay := func(provenance bool) []searched {
				var out []searched
				searchReplay(t, lab.opts, provenance, func(mode string, w int, controller string, _, _ int64, d core.Decision) {
					if d.Invoked && !d.Degraded {
						out = append(out, searched{fmt.Sprintf("%s w=%02d %s", mode, w, controller), d.Search})
					}
				})
				return out
			}
			recorded := replay(true)
			vertexless := core.CountVertexless(t)
			bare := replay(false)
			if len(bare) != len(recorded) {
				t.Fatalf("%d searches without provenance, %d with", len(bare), len(recorded))
			}
			for i, b := range bare {
				r := recorded[i]
				if b.at != r.at || cluster.PlanString(b.sr.Plan) != cluster.PlanString(r.sr.Plan) ||
					math.Float64bits(b.sr.Utility) != math.Float64bits(r.sr.Utility) ||
					b.sr.SearchTime != r.sr.SearchTime ||
					math.Float64bits(b.sr.SearchCost) != math.Float64bits(r.sr.SearchCost) ||
					b.sr.Expanded != r.sr.Expanded || b.sr.Generated != r.sr.Generated ||
					b.sr.PeakFrontier != r.sr.PeakFrontier || b.sr.PrunedChildren != r.sr.PrunedChildren ||
					b.sr.Truncated != r.sr.Truncated {
					t.Fatalf("%s: without provenance %+v\nwith provenance %s %+v", b.at, b.sr, r.at, r.sr)
				}
			}
			if *vertexless == 0 {
				t.Fatalf("%d searches pushed no vertex-less entry", len(bare))
			}
			t.Logf("%d searches, %d vertex-less entries", len(bare), *vertexless)
		})
	}
}
