package strategy

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/lqn"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/sim"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/utility"
	"github.com/mistralcloud/mistral/internal/workload"
)

// lab bundles a calibrated 2-app/4-host environment.
type lab struct {
	cat   *cluster.Catalog
	apps  []*app.Spec
	eval  *core.Evaluator
	util  *utility.Params
	cfg   cluster.Config
	names []string
}

func newLab(t *testing.T) *lab {
	t.Helper()
	names := []string{"rubis1", "rubis2"}
	apps := []*app.Spec{app.RUBiS("rubis1"), app.RUBiS("rubis2")}
	hosts := make([]cluster.HostSpec, 4)
	for i := range hosts {
		hosts[i] = cluster.DefaultHostSpec("h" + string(rune('0'+i)))
	}
	cat, err := app.BuildCatalog(hosts, apps)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := app.DefaultConfig(cat, apps, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lqn.CalibrateDemands(cat, apps, cfg, map[string]float64{"rubis1": 50, "rubis2": 50}, "rubis1"); err != nil {
		t.Fatal(err)
	}
	model, err := lqn.NewModel(cat, apps)
	if err != nil {
		t.Fatal(err)
	}
	costMgr, err := cost.NewManager(cat, cost.PaperTable(), 8)
	if err != nil {
		t.Fatal(err)
	}
	util := utility.PaperParams(names)
	eval, err := core.NewEvaluator(cat, model, util, costMgr)
	if err != nil {
		t.Fatal(err)
	}
	return &lab{cat: cat, apps: apps, eval: eval, util: util, cfg: cfg, names: names}
}

// shortTraces builds one-hour traces with a mid-run shift (so every
// strategy has something to react to) plus the small minute-scale jitter
// real traffic always carries (so zero-band controllers keep engaging).
func shortTraces(l *lab) workload.Set {
	set := make(workload.Set, len(l.names))
	for i, n := range l.names {
		rng := sim.NewRNG(99, uint64(i))
		rates := make([]float64, 61)
		for j := range rates {
			var base float64
			switch {
			case j < 20:
				base = 20 + float64(5*i)
			case j < 40:
				base = 70 - float64(10*i)
			default:
				base = 35
			}
			rates[j] = base + rng.Normal(0, 1)
		}
		set[n] = &workload.Trace{Step: time.Minute, Rates: rates}
	}
	return set
}

func (l *lab) run(t *testing.T, d scenario.Decider) *scenario.Result {
	t.Helper()
	tb, err := testbed.New(l.cat, l.apps, l.cfg, shortTraces(l).At(0), nil, testbed.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(tb, d, scenario.RunConfig{
		Traces:   shortTraces(l),
		Duration: time.Hour,
		Utility:  l.util,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkResult(t *testing.T, res *scenario.Result) {
	t.Helper()
	if len(res.Windows) != 30 {
		t.Fatalf("%s: windows = %d, want 30", res.Strategy, len(res.Windows))
	}
	for _, w := range res.Windows {
		if w.Watts <= 0 {
			t.Fatalf("%s: window at %v has no power", res.Strategy, w.Time)
		}
		for _, n := range []string{"rubis1", "rubis2"} {
			if w.RTSec[n] <= 0 {
				t.Fatalf("%s: window at %v has no RT for %s", res.Strategy, w.Time, n)
			}
		}
	}
	if res.Windows[len(res.Windows)-1].CumUtility != res.CumUtility {
		t.Errorf("%s: cumulative utility mismatch", res.Strategy)
	}
}

func TestMistralStrategyRuns(t *testing.T) {
	l := newLab(t)
	m, err := NewMistral(l.eval, MistralConfig{
		HostGroups: [][]string{l.cat.HostNames()[:2], l.cat.HostNames()[2:]},
		Search:     core.SearchOptions{MaxExpansions: 1500, TimePerChild: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := l.run(t, m)
	checkResult(t, res)
	if res.Invocations == 0 {
		t.Error("Mistral never invoked")
	}
	l1, l2 := m.Stats()
	if l1.Invocations+l2.Invocations == 0 {
		t.Error("no level stats recorded")
	}
	if l2.Invocations == 0 {
		t.Error("L2 never ran despite band-escaping workload shifts")
	}
	if res.MeanSearchTime <= 0 {
		t.Error("no search time accounted")
	}
}

func TestPerfPwrStrategyAdaptsAggressively(t *testing.T) {
	l := newLab(t)
	res := l.run(t, NewPerfPwr(l.eval))
	checkResult(t, res)
	if res.TotalActions == 0 {
		t.Error("Perf-Pwr executed no actions despite workload changes")
	}
}

func TestPerfCostStrategyKeepsRTWithoutConsolidating(t *testing.T) {
	l := newLab(t)
	pc, err := NewPerfCost(l.eval, l.util)
	if err != nil {
		t.Fatal(err)
	}
	res := l.run(t, pc)
	checkResult(t, res)
	// The fixed pool never powers hosts off: power stays at 4-host levels.
	for _, w := range res.Windows {
		if w.Watts < 4*55 {
			t.Errorf("Perf-Cost window at %v draws %v W: consolidation should not happen", w.Time, w.Watts)
		}
	}
}

func TestPwrCostStrategyMeetsTargetsMostly(t *testing.T) {
	l := newLab(t)
	res := l.run(t, NewPwrCost(l.eval))
	checkResult(t, res)
	// Hard performance constraints: violations only from transients, so
	// well under half of all app-windows.
	if res.TargetViolations > len(res.Windows) {
		t.Errorf("Pwr-Cost violations = %d over %d windows", res.TargetViolations, len(res.Windows))
	}
}

func TestStrategiesUtilityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-strategy comparison is slow")
	}
	l := newLab(t)
	m, err := NewMistral(l.eval, MistralConfig{
		Search: core.SearchOptions{MaxExpansions: 1500, TimePerChild: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	mistral := l.run(t, m)
	perfPwr := l.run(t, NewPerfPwr(l.eval))
	t.Logf("utility: Mistral=%.1f Perf-Pwr=%.1f", mistral.CumUtility, perfPwr.CumUtility)
	if mistral.CumUtility <= perfPwr.CumUtility {
		t.Errorf("Mistral (%.2f) did not beat cost-blind Perf-Pwr (%.2f)", mistral.CumUtility, perfPwr.CumUtility)
	}
}

// TestNewMapsNamesToStrategies: the one name → strategy mapping the binaries
// and the experiments share. Names match case-insensitively (the
// experiments pass the figures' "Perf-Pwr" spellings), "naive" is the
// hierarchy with the naive search, and an unknown name yields a nil Decider,
// not a nil pointer inside one.
func TestNewMapsNamesToStrategies(t *testing.T) {
	l := newLab(t)
	for name, want := range map[string]string{
		"mistral":   "Mistral",
		"Mistral":   "Mistral",
		"naive":     "Mistral-Naive",
		"perf-pwr":  "Perf-Pwr",
		"Perf-Cost": "Perf-Cost",
		"PWR-COST":  "Pwr-Cost",
	} {
		d, err := New(name, l.eval, l.util, MistralConfig{})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if d.Name() != want {
			t.Errorf("New(%q) built %q, want %q", name, d.Name(), want)
		}
	}
	if d, err := New("mistral", l.eval, l.util, MistralConfig{Naive: true}); err != nil || d.Name() != "Mistral-Naive" {
		t.Errorf("New(mistral, Naive) = %v, %v; want the naive hierarchy", d, err)
	}
	d, err := New("pmapper", l.eval, l.util, MistralConfig{})
	if d != nil || err == nil || err.Error() != `unknown strategy "pmapper"` {
		t.Errorf("New(pmapper) = %v, %v; want nil and an unknown-strategy error", d, err)
	}
}
