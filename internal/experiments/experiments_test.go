package experiments

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/workload"
)

func TestNewLabDefaults(t *testing.T) {
	lab, err := NewLab(LabOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(lab.Apps) != 2 || len(lab.Cat.HostNames()) != 4 {
		t.Errorf("defaults: %d apps, %d hosts; want 2/4", len(lab.Apps), len(lab.Cat.HostNames()))
	}
	if lab.CalibrationScale <= 0 {
		t.Error("no calibration scale")
	}
	if !lab.Initial.IsCandidate(lab.Cat) {
		t.Error("initial config invalid")
	}
	// Controller model must differ from ground truth (offline measurement
	// error) but only slightly.
	var diff int
	for i, a := range lab.Apps {
		c := lab.CtrlApps[i]
		for j := range a.Txns {
			for tier, d := range a.Txns[j].DemandMS {
				cd := c.Txns[j].DemandMS[tier]
				if cd != d {
					diff++
					if math.Abs(cd-d)/d > 0.25 {
						t.Errorf("model perturbation too large: %v vs %v", cd, d)
					}
				}
			}
		}
	}
	if diff == 0 {
		t.Error("controller model identical to ground truth")
	}
	// Host groups: single group for 2 apps, two groups for more.
	if got := len(lab.HostGroups()); got != 1 {
		t.Errorf("2-app host groups = %d, want 1", got)
	}
	lab4, err := NewLab(LabOptions{NumApps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(lab4.HostGroups()); got != 2 {
		t.Errorf("4-app host groups = %d, want 2", got)
	}
}

func TestFig3Shape(t *testing.T) {
	points := Fig3UtilityFunction()
	if len(points) != 21 {
		t.Fatalf("points = %d", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if first.Reward != 1.0 || last.Reward != 3.5 {
		t.Errorf("reward endpoints = %v..%v", first.Reward, last.Reward)
	}
	if first.Penalty != -3.5 || last.Penalty != -1.0 {
		t.Errorf("penalty endpoints = %v..%v", first.Penalty, last.Penalty)
	}
	tbl := Fig3Table(points)
	if !strings.Contains(tbl.ASCII(), "reward") {
		t.Error("table missing header")
	}
	if !strings.Contains(tbl.CSV(), "req/s,reward,penalty") {
		t.Error("CSV missing header")
	}
}

func TestFig4Workloads(t *testing.T) {
	r := Fig4Workloads(42)
	if len(r.Names) != 4 {
		t.Fatalf("names = %v", r.Names)
	}
	if len(r.Times) != 40 {
		t.Errorf("times = %d, want 40 (10-min steps over 6.5h)", len(r.Times))
	}
	for _, n := range r.Names {
		var maxRate float64
		for _, v := range r.Rates[n] {
			if v < 0 || v > 100 {
				t.Fatalf("%s rate %v out of [0,100]", n, v)
			}
			maxRate = math.Max(maxRate, v)
		}
		if maxRate < 50 {
			t.Errorf("%s peaks at %v, suspiciously low", n, maxRate)
		}
	}
	tbl := r.Table()
	if len(tbl.Rows) != len(r.Times) {
		t.Error("table row mismatch")
	}
	if tbl.Rows[0][0] != "15:00" {
		t.Errorf("first row time = %q", tbl.Rows[0][0])
	}
}

func TestFig6Estimation(t *testing.T) {
	r := Fig6StabilityEstimation(42)
	if len(r.MeasuredMS) < 20 || len(r.MeasuredMS) != len(r.EstimatedMS) {
		t.Fatalf("series lengths %d/%d", len(r.MeasuredMS), len(r.EstimatedMS))
	}
	if r.ErrorPct <= 0 || r.ErrorPct > 100 {
		t.Errorf("error = %v%%", r.ErrorPct)
	}
	tables := r.Tables()
	if len(tables) != 2 || len(tables[0].Rows) != len(r.MeasuredMS) {
		t.Fatal("series table row mismatch")
	}
	// One summary row per application; RUBiS-1's carries the figure's error
	// and its interval count.
	if len(r.Apps) != 4 || len(tables[1].Rows) != 4 {
		t.Fatalf("%d apps, %d summary rows; want 4", len(r.Apps), len(tables[1].Rows))
	}
	if a := r.Apps[0]; a.Name != "rubis1" || a.ErrorPct != r.ErrorPct || a.Intervals != len(r.MeasuredMS) {
		t.Errorf("rubis1 summary %+v does not match the series (error %v, %d intervals)", a, r.ErrorPct, len(r.MeasuredMS))
	}
	for _, a := range r.Apps {
		if a.Min > a.Mean || a.Mean > a.Max || a.ErrorPct <= 0 {
			t.Errorf("%s: min %v mean %v max %v error %v%%", a.Name, a.Min, a.Mean, a.Max, a.ErrorPct)
		}
	}
}

func TestFig7Rows(t *testing.T) {
	rows := Fig7AdaptationCosts()
	if len(rows) != 5*8 {
		t.Fatalf("rows = %d, want 40", len(rows))
	}
	byAction := make(map[string][]Fig7Row)
	for _, r := range rows {
		byAction[r.Action] = append(byAction[r.Action], r)
	}
	for action, rs := range byAction {
		for i := 1; i < len(rs); i++ {
			if rs[i].DelayMS < rs[i-1].DelayMS {
				t.Errorf("%s: delay not nondecreasing", action)
			}
		}
	}
	// Fig. 7a ordering at 800 sessions.
	var db, web float64
	for _, r := range rows {
		if r.Sessions != 800 {
			continue
		}
		switch r.Action {
		case "Migration (MySQL)":
			db = r.DeltaWattPct
		case "Migration (Apache)":
			web = r.DeltaWattPct
		}
	}
	if db <= web {
		t.Errorf("MySQL migration watts %v not above Apache %v", db, web)
	}
}

func TestMigrationDurationModel(t *testing.T) {
	lo := MigrationDurationModel(200, 100)
	hi := MigrationDurationModel(200, 800)
	if lo < 10*time.Second || lo > 30*time.Second {
		t.Errorf("low-load duration = %v, want ~16-20s", lo)
	}
	if hi < 60*time.Second || hi > 100*time.Second {
		t.Errorf("high-load duration = %v, want ~80s", hi)
	}
	if hi <= lo {
		t.Error("duration not increasing with load")
	}
}

func TestFig1ShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("request-level experiment")
	}
	r, err := Fig1MigrationCost(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series = %d", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.DeltaWattPct) != 110 {
			t.Fatalf("windows = %d, want 110", len(s.DeltaWattPct))
		}
		if s.PeakDeltaWattPct() <= 2 {
			t.Errorf("%v sessions: no visible power transient (%.1f%%)", s.Sessions, s.PeakDeltaWattPct())
		}
		if s.PeakDeltaRTPct() <= 5 {
			t.Errorf("%v sessions: no visible RT transient (%.1f%%)", s.Sessions, s.PeakDeltaRTPct())
		}
		// Before the migration the deltas hover near zero.
		for w := 0; w < r.MigrationAt; w++ {
			if math.Abs(s.DeltaWattPct[w]) > 15 {
				t.Errorf("pre-migration watt delta %v at window %d", s.DeltaWattPct[w], w)
			}
		}
	}
	if got := r.Tables(); len(got) != 2 {
		t.Error("expected two tables (power, RT)")
	}
}

func TestFig5Accuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("request-level experiment")
	}
	r, err := Fig5ModelAccuracy(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 12 {
		t.Fatalf("points = %d, want 12 (16:52..17:14)", len(r.Points))
	}
	// The paper reports ≈5% errors; ours should be in single digits.
	if r.RTErrPct > 12 {
		t.Errorf("RT error = %.1f%%, want single digits", r.RTErrPct)
	}
	if r.UtilErrPct > 12 {
		t.Errorf("util error = %.1f%%", r.UtilErrPct)
	}
	if r.WattsErrPct > 12 {
		t.Errorf("watts error = %.1f%%", r.WattsErrPct)
	}
}

// TestRunStrategyShortScenario replays each compared strategy's recipe for
// the first hour, and Build refuses a strategy it does not know.
func TestRunStrategyShortScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	lab := LabOptions{NumApps: 2, Seed: 7}
	for _, s := range AllStrategies() {
		res := shortReplay(t, Recipe{Lab: lab, Strategy: string(s)}, scenario.RunConfig{}).Engine.Result()
		if len(res.Windows) != 30 {
			t.Errorf("%s: %d windows", s, len(res.Windows))
		}
	}
	if _, err := (Recipe{Lab: lab, Strategy: "bogus"}).Build(scenario.RunConfig{}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestIdealUtilityPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizer sweep")
	}
	lab, err := NewLab(LabOptions{NumApps: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := IdealUtility(lab, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got <= 0 {
		t.Errorf("ideal utility over the quiet first hour = %v, want positive", got)
	}
}

func TestWorkloadsStayServable(t *testing.T) {
	// The combined offered load must stay within what maximum replication
	// can serve for all but short flash overlaps, or the whole evaluation
	// degenerates (see DESIGN.md §5).
	set := workload.PaperWorkloads(42, []string{"rubis1", "rubis2"})
	over := 0
	total := 0
	for at := time.Duration(0); at <= workload.ScenarioDuration; at += 2 * time.Minute {
		rates := set.At(at)
		if rates["rubis1"]+rates["rubis2"] > 165 {
			over++
		}
		total++
	}
	if frac := float64(over) / float64(total); frac > 0.1 {
		t.Errorf("combined load exceeds 165 req/s in %.0f%% of windows", frac*100)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "T",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x,y"}, {"2", `q"u`}},
	}
	ascii := tbl.ASCII()
	if !strings.Contains(ascii, "T\n") || !strings.Contains(ascii, "--") {
		t.Errorf("ascii = %q", ascii)
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"q""u"`) {
		t.Errorf("csv quoting broken: %q", csv)
	}
}

func TestMeasuredCostTable(t *testing.T) {
	if testing.Short() {
		t.Skip("request-level campaign")
	}
	tbl, err := MeasuredCostTable(7, 1, []float64{200, 800})
	if err != nil {
		t.Fatal(err)
	}
	// All measured families present with both workload levels.
	for _, k := range []cost.Key{
		{Kind: cluster.ActionMigrate, Tier: "db"},
		{Kind: cluster.ActionMigrate, Tier: "web"},
		{Kind: cluster.ActionAddReplica, Tier: "db"},
		{Kind: cluster.ActionRemoveReplica, Tier: "app"},
	} {
		es := tbl.Entries(k)
		if len(es) != 2 {
			t.Fatalf("%v: %d entries, want 2", k, len(es))
		}
		if es[1].Duration <= es[0].Duration {
			t.Errorf("%v: duration not growing with sessions (%v -> %v)", k, es[0].Duration, es[1].Duration)
		}
	}
	// The published constants for non-measurable families carried over.
	if _, ok := tbl.Lookup(cost.Key{Kind: cluster.ActionStartHost}, 0); !ok {
		t.Error("host cycling constants missing")
	}
	if _, ok := tbl.Lookup(cost.Key{Kind: cluster.ActionIncreaseCPU}, 400); !ok {
		t.Error("CPU tuning constants missing")
	}
	// The measured table is drop-in usable by a cost manager.
	lab, err := NewLab(LabOptions{NumApps: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := cost.NewManager(lab.Cat, tbl, 8)
	if err != nil {
		t.Fatal(err)
	}
	pred := mgr.Predict(lab.Initial, cluster.Action{Kind: cluster.ActionMigrate, VM: "rubis1-db-0", Host: "h3"}, map[string]float64{"rubis1": 50, "rubis2": 50})
	if pred.Duration <= 0 {
		t.Error("measured table produced no duration")
	}
}

func TestFig89AndFig10Rendering(t *testing.T) {
	// Synthetic results exercise the rendering paths without full replays.
	mk := func(name string, cum float64) *scenario.Result {
		return &scenario.Result{
			Strategy: name,
			Windows: []scenario.WindowLog{
				{
					Time:       2 * time.Minute,
					Rates:      map[string]float64{"rubis1": 10, "rubis2": 20},
					RTSec:      map[string]float64{"rubis1": 0.1, "rubis2": 0.2},
					Watts:      200,
					Utility:    cum,
					CumUtility: cum,
					SearchTime: time.Second,
				},
			},
			CumUtility: cum,
		}
	}
	r89 := &Fig89Result{Results: map[StrategyName]*scenario.Result{
		StrategyPerfPwr:  mk("Perf-Pwr", -1),
		StrategyPerfCost: mk("Perf-Cost", 1),
		StrategyPwrCost:  mk("Pwr-Cost", 2),
		StrategyMistral:  mk("Mistral", 3),
	}}
	tables := r89.Tables()
	if len(tables) != 5 {
		t.Fatalf("fig89 tables = %d, want 5", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 || tbl.ASCII() == "" || tbl.CSV() == "" {
			t.Errorf("table %q renders empty", tbl.Title)
		}
	}
	cums := r89.CumUtility()
	if cums[StrategyMistral] != 3 {
		t.Errorf("CumUtility = %v", cums)
	}

	r10 := &Fig10Result{SearchPowerPct: 11.7, SelfAware: mk("Mistral", 3), Naive: mk("Mistral-Naive", 1)}
	tables = r10.Tables()
	if len(tables) != 3 {
		t.Fatalf("fig10 tables = %d, want 3", len(tables))
	}
	a, n := r10.MeanSearch()
	_ = a
	_ = n
}

func TestTable1Rendering(t *testing.T) {
	r := &Table1Result{Scenarios: []Table1Scenario{
		{Apps: 2, VMs: 10, Hosts: 4, SelfAwareMean: time.Second, NaiveMean: 4 * time.Second, MistralUtility: 100, NaiveUtility: 50, IdealUtility: 150},
		{Apps: 4, VMs: 20, Hosts: 8, SelfAwareMean: 2 * time.Second, NaiveMean: 30 * time.Second, MistralUtility: 200, NaiveUtility: 20, IdealUtility: 300},
	}}
	tbl := r.Table()
	if len(tbl.Rows) != 10 {
		t.Fatalf("table1 rows = %d, want 10", len(tbl.Rows))
	}
	if !strings.Contains(tbl.ASCII(), "10 / 4") {
		t.Error("VM/host row missing")
	}
}

// TestAblationStudiesShareTheBaseRecipe: the rows at the paper's defaults
// (prune 5%, band 8 req/s, no DVFS, one zone) are the base recipe itself, so
// Ablations replays 7 distinct recipes for its 10 rows.
func TestAblationStudiesShareTheBaseRecipe(t *testing.T) {
	rows := ablationStudies(3)
	var distinct []Recipe
	for _, r := range rows {
		base := reflect.DeepEqual(r.Recipe, PaperRecipe(3))
		if atDefault := strings.HasPrefix(r.Label, "5%") || r.Label == "8req/s" || r.Label == "no-dvfs" || r.Label == "single-zone"; base != atDefault {
			t.Errorf("%s %s: base recipe %v, at the paper's default %v", r.Study, r.Label, base, atDefault)
		}
		if !slices.ContainsFunc(distinct, func(d Recipe) bool { return reflect.DeepEqual(d, r.Recipe) }) {
			distinct = append(distinct, r.Recipe)
		}
	}
	if len(rows) != 10 || len(distinct) != 7 {
		t.Errorf("%d rows over %d distinct recipes, want 10 over 7", len(rows), len(distinct))
	}
}
