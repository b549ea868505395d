package guard

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

func setup(t *testing.T, nHosts int, appNames ...string) (*cluster.Catalog, cluster.Config) {
	t.Helper()
	apps := make([]*app.Spec, len(appNames))
	for i, n := range appNames {
		apps[i] = app.RUBiS(n)
	}
	hosts := make([]cluster.HostSpec, nHosts)
	for i := range hosts {
		hosts[i] = cluster.DefaultHostSpec("h" + string(rune('0'+i)))
	}
	cat, err := app.BuildCatalog(hosts, apps)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := app.DefaultConfig(cat, apps, min(nHosts, 2*len(apps)), 40)
	if err != nil {
		t.Fatal(err)
	}
	return cat, cfg
}

func feasibleDst(t *testing.T, cat *cluster.Catalog, cfg cluster.Config, vm cluster.VMID) string {
	t.Helper()
	p, ok := cfg.PlacementOf(vm)
	if !ok {
		t.Fatalf("VM %s not placed", vm)
	}
	for _, h := range cfg.ActiveHosts() {
		if h == p.Host {
			continue
		}
		spec, _ := cat.Host(h)
		if cfg.AllocatedCPU(h)+p.CPUPct <= spec.UsableCPUPct && len(cfg.VMsOnHost(h)) < spec.MaxVMs {
			return h
		}
	}
	t.Fatal("no feasible destination host")
	return ""
}

func TestNilGuardAdmitsEverything(t *testing.T) {
	var g *Guard
	v := g.Admit(0, cluster.Config{}, []cluster.Action{{Kind: cluster.ActionStartHost, Host: "h9"}})
	if !v.Allowed {
		t.Fatalf("nil guard rejected: %+v", v)
	}
	g.ObserveWindow(true) // must not panic
	if g.Enabled() {
		t.Error("nil guard reports enabled")
	}
	if g.Snapshot() != nil {
		t.Error("nil guard snapshot not nil")
	}
}

func TestAdmitValidPlan(t *testing.T) {
	cat, cfg := setup(t, 4, "rubis1")
	g := New(Config{}, cat)
	dst := feasibleDst(t, cat, cfg, "rubis1-db-0")
	v := g.Admit(0, cfg, []cluster.Action{{Kind: cluster.ActionMigrate, VM: "rubis1-db-0", Host: dst}})
	if !v.Allowed {
		t.Fatalf("valid plan rejected: %+v", v)
	}
	if adm, rej, _ := g.Stats(); adm != 1 || rej != 0 {
		t.Errorf("stats = %d admitted, %d rejected", adm, rej)
	}
}

func TestRejectInvalidPlan(t *testing.T) {
	cat, cfg := setup(t, 4, "rubis1")
	g := New(Config{}, cat)
	v := g.Admit(0, cfg, []cluster.Action{{Kind: cluster.ActionMigrate, VM: "no-such-vm", Host: "h0"}})
	if v.Allowed || v.Rule != "invalid-plan" {
		t.Fatalf("verdict = %+v, want invalid-plan rejection", v)
	}
}

func TestRejectMigrationCap(t *testing.T) {
	cat, cfg := setup(t, 4, "rubis1")
	g := New(Config{}, cat)
	// One VM shuttled between two hosts: every hop is feasible, so only
	// the count decides.
	vm := cluster.VMID("rubis1-db-0")
	home, _ := cfg.PlacementOf(vm)
	away := feasibleDst(t, cat, cfg, vm)
	var plan []cluster.Action
	for i := 0; i <= maxMigrationsPerWindow; i++ {
		dst := away
		if i%2 == 1 {
			dst = home.Host
		}
		plan = append(plan, cluster.Action{Kind: cluster.ActionMigrate, VM: vm, Host: dst})
	}
	if v := g.Admit(0, cfg, plan[:maxMigrationsPerWindow]); !v.Allowed {
		t.Fatalf("plan at the cap rejected: %+v", v)
	}
	v := g.Admit(0, cfg, plan)
	if v.Allowed || v.Rule != "migration-cap" {
		t.Fatalf("verdict = %+v, want migration-cap rejection", v)
	}
}

func TestRejectPowerCycleCooldown(t *testing.T) {
	cat, cfg := setup(t, 4, "rubis1")
	g := New(Config{}, cat)
	off := ""
	for _, h := range cat.HostNames() {
		if !cfg.HostOn(h) {
			off = h
			break
		}
	}
	if off == "" {
		t.Fatal("no powered-off host")
	}
	start := []cluster.Action{{Kind: cluster.ActionStartHost, Host: off}}
	if v := g.Admit(0, cfg, start); !v.Allowed {
		t.Fatalf("first cycle rejected: %+v", v)
	}
	after, _, err := cluster.ApplyAll(cat, cfg, start)
	if err != nil {
		t.Fatal(err)
	}
	stop := []cluster.Action{{Kind: cluster.ActionStopHost, Host: off}}
	if v := g.Admit(5*time.Minute, after, stop); v.Allowed || v.Rule != "power-cycle-cooldown" {
		t.Fatalf("verdict = %+v, want power-cycle-cooldown rejection", v)
	}
	if v := g.Admit(15*time.Minute, after, stop); !v.Allowed {
		t.Fatalf("post-cooldown cycle rejected: %+v", v)
	}
}

func TestRejectMinReplicaFloor(t *testing.T) {
	cat, cfg := setup(t, 4, "rubis1")
	g := New(Config{}, cat)
	// The floor is one active replica per required tier. Staging already
	// refuses a plan that removes a tier's last replica, so the guard
	// rejects it as invalid before its own floor rule runs.
	for _, k := range cat.Tiers() {
		reps := cfg.ActiveReplicas(cat, k)
		if !cat.TierRequired(k) || len(reps) != 1 {
			continue
		}
		v := g.Admit(0, cfg, []cluster.Action{{Kind: cluster.ActionRemoveReplica, VM: reps[0]}})
		if v.Allowed || v.Rule != "invalid-plan" {
			t.Fatalf("removing the last replica of %v: verdict %+v, want invalid-plan", k, v)
		}
		return
	}
	t.Fatal("no single-replica required tier in this fixture")
}

func TestBreakerStateMachine(t *testing.T) {
	cat, cfg := setup(t, 4, "rubis1")
	g := New(Config{}, cat)
	plan := []cluster.Action{{Kind: cluster.ActionMigrate, VM: "rubis1-db-0", Host: feasibleDst(t, cat, cfg, "rubis1-db-0")}}
	observe := func(degraded bool, n int) {
		for i := 0; i < n; i++ {
			g.ObserveWindow(degraded)
		}
	}

	// One degraded window short of the threshold: still closed.
	observe(true, breakerThreshold-1)
	if g.Breaker() != BreakerClosed {
		t.Fatalf("breaker = %v after %d degraded, want closed", g.Breaker(), breakerThreshold-1)
	}
	// A clean window resets the run.
	observe(false, 1)
	observe(true, breakerThreshold-1)
	if g.Breaker() != BreakerClosed {
		t.Fatalf("breaker = %v, want closed (run was reset)", g.Breaker())
	}
	// The threshold-th consecutive degraded window trips it open.
	observe(true, 1)
	if g.Breaker() != BreakerOpen {
		t.Fatalf("breaker = %v after threshold, want open", g.Breaker())
	}
	if v := g.Admit(0, cfg, plan); v.Allowed || v.Rule != "breaker-open" {
		t.Fatalf("verdict = %+v, want breaker-open rejection", v)
	}
	// The cooldown, then half-open.
	observe(true, breakerCooldown-1)
	if g.Breaker() != BreakerOpen {
		t.Fatalf("breaker = %v mid-cooldown, want open", g.Breaker())
	}
	observe(true, 1)
	if g.Breaker() != BreakerHalfOpen {
		t.Fatalf("breaker = %v after cooldown, want half-open", g.Breaker())
	}
	// Half-open admits a probe.
	if v := g.Admit(0, cfg, plan); !v.Allowed {
		t.Fatalf("half-open probe rejected: %+v", v)
	}
	// A degraded probe window re-opens; a clean one closes.
	observe(true, 1)
	if g.Breaker() != BreakerOpen {
		t.Fatalf("breaker = %v after degraded probe, want open", g.Breaker())
	}
	observe(false, breakerCooldown)
	if g.Breaker() != BreakerHalfOpen {
		t.Fatalf("breaker = %v after second cooldown, want half-open", g.Breaker())
	}
	observe(false, 1)
	if g.Breaker() != BreakerClosed {
		t.Fatalf("breaker = %v after clean probe, want closed", g.Breaker())
	}
	if _, _, opens := g.Stats(); opens != 2 {
		t.Errorf("opens = %d, want 2", opens)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	cat, cfg := setup(t, 4, "rubis1")
	g := New(Config{}, cat)
	off := ""
	for _, h := range cat.HostNames() {
		if !cfg.HostOn(h) {
			off = h
			break
		}
	}
	g.Admit(7*time.Minute, cfg, []cluster.Action{{Kind: cluster.ActionStartHost, Host: off}})
	for i := 0; i < breakerThreshold; i++ {
		g.ObserveWindow(true) // the last one trips it open
	}
	s := g.Snapshot()

	// Round-trip through JSON, as the checkpoint plane does.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var s2 State
	if err := json.Unmarshal(raw, &s2); err != nil {
		t.Fatal(err)
	}
	g2 := New(Config{}, cat)
	if err := g2.Restore(&s2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Snapshot(), g2.Snapshot()) {
		t.Fatalf("snapshot mismatch:\n%+v\n%+v", g.Snapshot(), g2.Snapshot())
	}
	if g2.Breaker() != BreakerOpen {
		t.Errorf("restored breaker = %v, want open", g2.Breaker())
	}
	// The power-cycle history survives: an immediate re-cycle is rejected
	// once the breaker closes again.
	for i := 0; i < breakerCooldown; i++ {
		g2.ObserveWindow(false)
	}
	g2.ObserveWindow(false) // half-open -> closed
	v := g2.Admit(12*time.Minute, cfg, []cluster.Action{{Kind: cluster.ActionStartHost, Host: off}})
	if v.Allowed || v.Rule != "power-cycle-cooldown" {
		t.Fatalf("verdict = %+v, want power-cycle-cooldown from restored history", v)
	}

	if err := g2.Restore(&State{Breaker: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown breaker state") {
		t.Errorf("bogus breaker restore err = %v", err)
	}
}
