package core

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/lqn"
	"github.com/mistralcloud/mistral/internal/utility"
)

// env is a ready-to-use controller environment for tests.
type env struct {
	cat  *cluster.Catalog
	apps []*app.Spec
	eval *Evaluator
	cfg  cluster.Config // calibrated default config
}

// newEnv builds nApps RUBiS applications on nHosts hosts, calibrated to the
// paper's 400 ms @ 50 req/s operating point. hostOpts adjust every host's
// spec (DVFS levels, zones) before the catalog is built.
func newEnv(t testing.TB, nHosts, nApps int, hostOpts ...func(*cluster.HostSpec)) *env {
	t.Helper()
	apps := make([]*app.Spec, nApps)
	for i := range apps {
		apps[i] = app.RUBiS("rubis" + string(rune('1'+i)))
	}
	hosts := make([]cluster.HostSpec, nHosts)
	for i := range hosts {
		hosts[i] = cluster.DefaultHostSpec("h" + string(rune('0'+i)))
		for _, opt := range hostOpts {
			opt(&hosts[i])
		}
	}
	return buildEnv(t, hosts, apps)
}

// buildEnv assembles the evaluator stack over the given hosts and
// applications, calibrated like the experiments' labs.
func buildEnv(t testing.TB, hosts []cluster.HostSpec, apps []*app.Spec) *env {
	t.Helper()
	nHosts, nApps := len(hosts), len(apps)
	names := make([]string, nApps)
	for i, a := range apps {
		names[i] = a.Name
	}
	cat, err := app.BuildCatalog(hosts, apps)
	if err != nil {
		t.Fatal(err)
	}
	defHosts := 2 * nApps
	if defHosts > nHosts {
		defHosts = nHosts
	}
	cfg, err := app.DefaultConfig(cat, apps, defHosts, 40)
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]float64{}
	for _, n := range names {
		load[n] = 50
	}
	if _, err := lqn.CalibrateDemands(cat, apps, cfg, load, names[0]); err != nil {
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
	eval, err := NewEvaluator(cat, model, utility.PaperParams(names), costMgr)
	if err != nil {
		t.Fatal(err)
	}
	return &env{cat: cat, apps: apps, eval: eval, cfg: cfg}
}

func rates(e *env, r float64) map[string]float64 {
	out := make(map[string]float64)
	for _, a := range e.apps {
		out[a.Name] = r
	}
	return out
}

func TestEvaluatorSteadyAndCache(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 50)
	s1, err := e.eval.Steady(e.cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Watts <= 0 {
		t.Error("no watts predicted")
	}
	if s1.PowerRate >= 0 {
		t.Error("power rate should be negative")
	}
	if s1.RTSec["rubis1"] <= 0 {
		t.Error("no RT predicted")
	}
	evals := e.eval.Evals()
	s2, err := e.eval.Steady(e.cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if e.eval.Evals() != evals {
		t.Error("second Steady call was not served from cache")
	}
	if s1.Watts != s2.Watts {
		t.Error("cache returned different result")
	}
	e.eval.BeginWindow()
	if e.eval.Evals() != 0 {
		t.Error("BeginWindow did not clear counters")
	}
}

func TestEvaluatorActionCost(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 50)
	base, err := e.eval.Steady(e.cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := e.cfg.PlacementOf("rubis1-db-0")
	var dst string
	for _, h := range e.cfg.ActiveHosts() {
		if h != src.Host {
			dst = h
			break
		}
	}
	_, filled, err := cluster.Apply(e.cat, e.cfg, cluster.Action{Kind: cluster.ActionMigrate, VM: "rubis1-db-0", Host: dst})
	if err != nil {
		t.Fatal(err)
	}
	ac := e.eval.Action(e.cfg, base, filled, w)
	if ac.Duration <= 0 {
		t.Error("no duration")
	}
	if ac.Rate >= base.NetRate() {
		t.Errorf("action rate %v not below steady rate %v", ac.Rate, base.NetRate())
	}
}

func TestPerfPwrConsolidatesAtLowLoad(t *testing.T) {
	e := newEnv(t, 4, 2)
	low, err := PerfPwr(e.eval, rates(e, 5), PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !low.Config.IsCandidate(e.cat) {
		t.Fatalf("ideal config not a candidate: %v", low.Config.Validate(e.cat))
	}
	e.eval.BeginWindow()
	high, err := PerfPwr(e.eval, rates(e, 95), PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !high.Config.IsCandidate(e.cat) {
		t.Fatalf("ideal high config not a candidate: %v", high.Config.Validate(e.cat))
	}
	if low.Config.NumActiveHosts() > high.Config.NumActiveHosts() {
		t.Errorf("low load uses %d hosts, high load %d; expected consolidation at low load",
			low.Config.NumActiveHosts(), high.Config.NumActiveHosts())
	}
	if low.Steady.Watts >= high.Steady.Watts {
		t.Errorf("low-load watts %v not below high-load watts %v", low.Steady.Watts, high.Steady.Watts)
	}
}

func TestPerfPwrIdealBeatsDefault(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 30)
	ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := e.eval.Steady(e.cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.Steady.NetRate() < cur.NetRate()-1e-9 {
		t.Errorf("ideal rate %v below current config rate %v; heuristic not admissible",
			ideal.Steady.NetRate(), cur.NetRate())
	}
}

func TestPerfPwrHostSubset(t *testing.T) {
	e := newEnv(t, 4, 1)
	subset := e.cat.HostNames()[:2]
	ideal, err := PerfPwr(e.eval, rates(e, 40), PerfPwrOptions{Hosts: subset})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range ideal.Config.ActiveHosts() {
		if h != subset[0] && h != subset[1] {
			t.Errorf("ideal uses out-of-scope host %s", h)
		}
	}
}

// fullFloor is the floor of PerfPwr's sweep over hosts.
func fullFloor(e *env, hosts []string) int {
	scope, _ := fullScope(e.eval, PerfPwrOptions{})
	return newPackPlan(e.eval, rates(e, 50), scope, hosts).floor()
}

// TestMinHostsNeeded pins the sweep's floor on the paper's lab for both
// scopes: six tiers keep a replica each, and 4-slot hosts need two for them;
// a subset controller keeps every VM it manages, so the hard-coded one host
// its sweep used to start from could never pack.
func TestMinHostsNeeded(t *testing.T) {
	e := newEnv(t, 4, 2)
	if got := fullFloor(e, e.cat.HostNames()); got != 2 {
		t.Errorf("PerfPwr floor = %d, want 2", got)
	}
	scope, hosts := subsetScope(e.eval, e.cfg, nil)
	if got := newPackPlan(e.eval, rates(e, 50), scope, hosts).floor(); len(scope.managed) != 6 || got != 2 {
		t.Errorf("PerfPwrSubset floor = %d for %d managed VMs, want 2 for 6", got, len(scope.managed))
	}
}

func TestSearchNoopWhenIdealEqualsCurrent(t *testing.T) {
	e := newEnv(t, 4, 1)
	w := rates(e, 40)
	st, err := e.eval.Steady(e.cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(e.eval, SearchOptions{})
	res, err := s.Search(e.cfg, w, 10*time.Minute, Ideal{Config: e.cfg.Clone(), Steady: st}, ExpectedUtility{}, cluster.ActionSpace{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan) != 0 {
		t.Errorf("plan = %v, want empty when ideal == current", res.Plan)
	}
}

// TestSearchRejectsForeignConfig: the expansion reads configurations through
// catalog-indexed arrays, so one naming a host the catalog does not know is
// refused up front (the controller degrades to no adaptation) rather than
// searched on the part that fits.
func TestSearchRejectsForeignConfig(t *testing.T) {
	e := newEnv(t, 4, 1)
	w := rates(e, 40)
	ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.cfg.Clone()
	cfg.SetHostOn("ghost", true)
	s := NewSearcher(e.eval, SearchOptions{})
	if _, err := s.Search(cfg, w, 10*time.Minute, ideal, ExpectedUtility{}, cluster.ActionSpace{}); err == nil {
		t.Error("search accepted a configuration outside the catalog")
	}
}

func TestSearchPlanIsFeasibleAndBeatsDoingNothing(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 10) // low load: consolidation should pay off
	ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Self-Aware search whose pruning steers the frontier toward the ideal
	// configuration once the delay budget is spent.
	s := NewSearcher(e.eval, SearchOptions{SelfAware: true, MaxExpansions: 4000})
	cw := 2 * time.Hour // long window: disruptive actions recoup their cost
	res, err := s.Search(e.cfg, w, cw, ideal, ExpectedUtility{}, cluster.ActionSpace{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan) == 0 {
		t.Fatal("no plan found despite long window and consolidation potential")
	}
	final, _, err := cluster.ApplyAll(e.cat, e.cfg, res.Plan)
	if err != nil {
		t.Fatalf("plan infeasible: %v", err)
	}
	if !final.IsCandidate(e.cat) {
		t.Errorf("plan ends in invalid config: %v", final.Validate(e.cat))
	}
	// Compare with doing nothing.
	st, err := e.eval.Steady(e.cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	stayUtility := cw.Seconds() * st.NetRate()
	if res.Utility < stayUtility {
		t.Errorf("plan utility %v below stay-put utility %v", res.Utility, stayUtility)
	}
	// The plan should reduce active hosts (consolidation).
	if final.NumActiveHosts() >= e.cfg.NumActiveHosts() {
		t.Errorf("no consolidation: %d -> %d hosts", e.cfg.NumActiveHosts(), final.NumActiveHosts())
	}
	if res.Truncated {
		t.Error("uncapped search reported truncation")
	}
	// The same search under an expansion cap it cannot finish within stops
	// at the cap, says so, and still returns a feasible plan or none.
	capped, err := NewSearcher(e.eval, SearchOptions{SelfAware: true, MaxExpansions: 2}).
		Search(e.cfg, w, cw, ideal, ExpectedUtility{}, cluster.ActionSpace{})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated || capped.Expanded != 2 {
		t.Errorf("capped search: truncated=%v after %d expansions, want true after 2", capped.Truncated, capped.Expanded)
	}
	if _, _, err := cluster.ApplyAll(e.cat, e.cfg, capped.Plan); err != nil {
		t.Errorf("capped plan infeasible: %v", err)
	}
}

func TestSearchShortWindowAvoidsExpensiveActions(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 10)
	ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(e.eval, SearchOptions{MaxExpansions: 1500})
	// A control window much shorter than a migration's payoff horizon.
	res, err := s.Search(e.cfg, w, 90*time.Second, ideal, ExpectedUtility{}, cluster.ActionSpace{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Plan {
		switch a.Kind {
		case cluster.ActionMigrate, cluster.ActionAddReplica, cluster.ActionRemoveReplica, cluster.ActionStartHost, cluster.ActionStopHost:
			t.Errorf("expensive action %s chosen for a 90s window", a)
		}
	}
}

func TestSearchRespectsActionSpace(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 10)
	ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(e.eval, SearchOptions{MaxExpansions: 600})
	space := cluster.ActionSpace{Kinds: []cluster.ActionKind{cluster.ActionIncreaseCPU, cluster.ActionDecreaseCPU}}
	res, err := s.Search(e.cfg, w, time.Hour, ideal, ExpectedUtility{}, space)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Plan {
		if a.Kind != cluster.ActionIncreaseCPU && a.Kind != cluster.ActionDecreaseCPU {
			t.Errorf("out-of-space action %s", a)
		}
	}
}

func TestSelfAwareSearchIsFasterThanNaive(t *testing.T) {
	// A crisis instance: the system sits consolidated on two hosts while
	// both applications' rates have jumped, so the ideal configuration is
	// many actions away. The naive search (no width pruning, no deadline)
	// must grind the frontier down to its ε-margin; the Self-Aware search
	// beams toward the ideal once its self-cost trigger fires.
	e := newEnv(t, 4, 2)
	w := map[string]float64{"rubis1": 70, "rubis2": 60}
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.SetHostOn("h1", true)
	cfg.Place("rubis1-web-0", "h0", 20)
	cfg.Place("rubis1-app-0", "h0", 30)
	cfg.Place("rubis1-db-0", "h0", 30)
	cfg.Place("rubis2-web-0", "h1", 20)
	cfg.Place("rubis2-app-0", "h1", 30)
	cfg.Place("rubis2-db-0", "h1", 30)
	if !cfg.IsCandidate(e.cat) {
		t.Fatalf("bad crisis config: %v", cfg.Validate(e.cat))
	}
	ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cw := 12 * time.Minute
	naive := NewSearcher(e.eval, SearchOptions{MaxExpansions: 1500})
	nRes, err := naive.Search(cfg, w, cw, ideal, ExpectedUtility{}, cluster.ActionSpace{})
	if err != nil {
		t.Fatal(err)
	}
	e.eval.BeginWindow()
	// A small expected utility makes the self-cost budget trigger early:
	// the Self-Aware search beams almost from the start.
	aware := NewSearcher(e.eval, SearchOptions{SelfAware: true, MaxExpansions: 1500})
	aRes, err := aware.Search(cfg, w, cw, ideal, ExpectedUtility{Total: 0.01, PerfRate: 0.02, PwrRate: -0.01}, cluster.ActionSpace{})
	if err != nil {
		t.Fatal(err)
	}
	// At this instance size the two variants are close (the decisive gaps
	// appear at the Fig. 10 / Table I scales, covered by the benches);
	// what must hold here is that self-awareness never costs much time and
	// always respects its own deadline.
	if aRes.SearchTime > nRes.SearchTime*13/10 {
		t.Errorf("self-aware search time %v well above naive %v", aRes.SearchTime, nRes.SearchTime)
	}
	deadline := 2 * time.Duration(float64(cw)*0.05)
	if aRes.SearchTime > deadline+time.Second {
		t.Errorf("self-aware exceeded its decision deadline: %v > %v", aRes.SearchTime, deadline)
	}
	if aRes.SearchCost <= 0 || nRes.SearchCost <= 0 {
		t.Error("search cost not accounted")
	}
	// Both plans must at least match staying put.
	st, err := e.eval.Steady(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	stay := cw.Seconds() * st.NetRate()
	if aRes.Utility < stay-1e-9 || nRes.Utility < stay-1e-9 {
		t.Errorf("utilities %v/%v below stay-put %v", aRes.Utility, nRes.Utility, stay)
	}
}

func TestControllerBandGating(t *testing.T) {
	e := newEnv(t, 4, 2)
	ctrl, err := NewController(e.eval, ControllerOptions{
		Name:      "L2",
		BandWidth: 8,
		Search:    SearchOptions{MaxExpansions: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := rates(e, 50)
	d1, err := ctrl.Decide(0, e.cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Invoked {
		t.Fatal("first decision not invoked")
	}
	// Within the band: no invocation.
	w2 := rates(e, 52)
	d2, err := ctrl.Decide(2*time.Minute, e.cfg, w2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Invoked {
		t.Error("decision invoked despite rates inside the 8 req/s band")
	}
	// Escaping the band re-invokes and measures the stability interval.
	w3 := rates(e, 70)
	d3, err := ctrl.Decide(10*time.Minute, e.cfg, w3)
	if err != nil {
		t.Fatal(err)
	}
	if !d3.Invoked {
		t.Fatal("band escape did not invoke controller")
	}
	if d3.MeasuredInterval != 10*time.Minute {
		t.Errorf("measured interval = %v, want 10m", d3.MeasuredInterval)
	}
	if d3.CW < ctrl.opts.MonitoringInterval {
		t.Errorf("CW = %v below monitoring interval", d3.CW)
	}
}

func TestControllerZeroBandAlwaysRuns(t *testing.T) {
	e := newEnv(t, 4, 1)
	ctrl, err := NewController(e.eval, ControllerOptions{
		Name:   "L1",
		Scope:  ScopeSubset,
		Search: SearchOptions{MaxExpansions: 200},
		Space:  cluster.ActionSpace{Kinds: []cluster.ActionKind{cluster.ActionIncreaseCPU, cluster.ActionDecreaseCPU}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Decide(0, e.cfg, rates(e, 50)); err != nil {
		t.Fatal(err)
	}
	d, err := ctrl.Decide(2*time.Minute, e.cfg, rates(e, 50.3))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Invoked {
		t.Error("zero-width band did not trigger on a small change")
	}
}

func TestControllerExpectedUtility(t *testing.T) {
	e := newEnv(t, 4, 1)
	ctrl, err := NewController(e.eval, ControllerOptions{Name: "x", MonitoringInterval: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if got := ctrl.expected(4 * time.Minute); got.Total != 0 {
		t.Errorf("expected with no history = %v, want 0", got.Total)
	}
	ctrl.RecordWindow(2.0, 0.02, -0.01)
	ctrl.RecordWindow(1.0, 0.015, -0.01)
	ctrl.RecordWindow(3.0, 0.03, -0.01)
	got := ctrl.expected(4 * time.Minute)
	if got.Total != 2.0 { // lowest (1.0) scaled by 4m/2m
		t.Errorf("UH = %v, want 2.0", got.Total)
	}
	// History is bounded.
	ctrl.RecordWindow(5, 0.02, -0.01)
	ctrl.RecordWindow(6, 0.02, -0.01)
	if len(ctrl.history) != 3 {
		t.Errorf("history len = %d, want 3", len(ctrl.history))
	}
}

// TestControllerDecideFallsBackOnEvalError: a workload naming an unknown
// application cannot be evaluated, and the controller must not silently
// report a zero baseline — but neither may it wedge the control loop. It
// degrades to a no-adaptation decision and retries next window.
func TestControllerDecideFallsBackOnEvalError(t *testing.T) {
	e := newEnv(t, 4, 1)
	ctrl, err := NewController(e.eval, ControllerOptions{Name: "L2-err"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ctrl.Decide(0, e.cfg, map[string]float64{"ghost": 50})
	if err != nil {
		t.Fatalf("eval error aborted the decision: %v", err)
	}
	if !d.Degraded || !d.Invoked {
		t.Errorf("decision = %+v, want invoked degraded fallback", d)
	}
	if len(d.Plan) != 0 {
		t.Errorf("fallback decision carries a plan: %v", d.Plan)
	}
	// The bands were not re-seeded, so the controller still runs next time.
	if !ctrl.ShouldRun(map[string]float64{"ghost": 50}) {
		t.Error("controller stopped running after a degraded decision")
	}
}
