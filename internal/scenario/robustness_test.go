package scenario

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/guard"
	"github.com/mistralcloud/mistral/internal/lqn"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/utility"
	"github.com/mistralcloud/mistral/internal/workload"
)

// setupExec mirrors setupFaulty with an explicit execution policy.
func setupExec(t *testing.T, opts fault.Options, exec testbed.ExecPolicy) (*testbed.Testbed, *utility.Params, workload.Set, *fault.Injector) {
	t.Helper()
	apps := []*app.Spec{app.RUBiS("rubis1")}
	hosts := []cluster.HostSpec{cluster.DefaultHostSpec("h0"), cluster.DefaultHostSpec("h1")}
	cat, err := app.BuildCatalog(hosts, apps)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := app.DefaultConfig(cat, apps, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lqn.CalibrateDemands(cat, apps, cfg, map[string]float64{"rubis1": 50}, "rubis1"); err != nil {
		t.Fatal(err)
	}
	traces := workload.Set{"rubis1": &workload.Trace{
		Step: time.Minute,
		Rates: func() []float64 {
			r := make([]float64, 31)
			for i := range r {
				r[i] = 30
			}
			return r
		}(),
	}}
	inj := fault.New(opts)
	tb, err := testbed.New(cat, apps, cfg, traces.At(0), nil, testbed.Options{Seed: 1, Fault: inj, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	return tb, utility.PaperParams([]string{"rubis1"}), traces, inj
}

// twoStep plans two CPU bumps per window (on the first two active VMs), so
// a terminal failure on the second step leaves an applied prefix for the
// rollback to compensate.
type twoStep struct{ scripted }

func (d *twoStep) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (Decision, error) {
	d.calls++
	vms := cfg.ActiveVMs()
	sort.Slice(vms, func(i, j int) bool { return vms[i] < vms[j] })
	var plan []cluster.Action
	for _, vm := range vms[:2] {
		kind := cluster.ActionIncreaseCPU
		if p, _ := cfg.PlacementOf(vm); p.CPUPct > 40 {
			kind = cluster.ActionDecreaseCPU
		}
		plan = append(plan, cluster.Action{Kind: kind, VM: vm, DeltaCPUPct: 10})
	}
	return Decision{Invoked: true, Plan: plan}, nil
}

func TestRunRollbackCompensatesPlans(t *testing.T) {
	tb, util, traces, inj := setupExec(t, fault.Options{
		Seed:              11,
		ActionFailRate:    0.5,
		RetryableFraction: -1, // every failure terminal
	}, testbed.RollbackOnFailure)
	d := &twoStep{scripted{name: "twostep"}}
	res, err := Run(tb, d, RunConfig{
		Traces: traces, Duration: 30 * time.Minute, Utility: util, Fault: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompensatedPlans == 0 {
		t.Fatal("no plan was compensated at a 50% terminal-failure rate")
	}
	if res.RolledBackActions == 0 {
		t.Fatal("no compensating step executed; every abort hit the first step")
	}
	if res.Retries != 0 {
		t.Errorf("retries = %d under all-terminal failures, want 0", res.Retries)
	}
	var rolled, compensated int
	for _, w := range res.Windows {
		if w.Compensated {
			compensated++
			if !w.FPRestored {
				t.Fatalf("window %v compensated without restoring the fingerprint", w.Time)
			}
			if !w.Degraded {
				t.Errorf("window %v compensated but not marked degraded", w.Time)
			}
		}
		rolled += w.RolledBack
	}
	if rolled != res.RolledBackActions {
		t.Errorf("window rollback ledger (%d) disagrees with RolledBackActions (%d)", rolled, res.RolledBackActions)
	}
	if compensated != res.CompensatedPlans {
		t.Errorf("compensated windows (%d) disagree with CompensatedPlans (%d)", compensated, res.CompensatedPlans)
	}
}

// TestRollbackDeterminismAcrossWorkers: the rollback path draws from a
// seeded fault stream, so the whole replay — windows, compensations,
// fingerprints — repeats run to run.
func TestRollbackDeterminismAcrossWorkers(t *testing.T) {
	run := func() []byte {
		tb, util, traces, inj := setupExec(t, fault.Options{
			Seed:              11,
			ActionFailRate:    0.5,
			RetryableFraction: -1,
		}, testbed.RollbackOnFailure)
		d := &twoStep{scripted{name: "twostep"}}
		res, err := Run(tb, d, RunConfig{
			Traces: traces, Duration: 30 * time.Minute, Utility: util,
			Fault: inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("rollback replay diverged run to run:\n%s\n%s", a, b)
	}
}

// TestQueueRetriesSkipsCompensatedPlans pins the retry/rollback contract
// directly: a compensated report queues nothing, even for steps that
// failed retryably before the abort.
func TestQueueRetriesSkipsCompensatedPlans(t *testing.T) {
	rep := testbed.ExecReport{
		Compensated: true,
		Steps: []testbed.StepReport{
			{Action: cluster.Action{Kind: cluster.ActionIncreaseCPU, VM: "v"}, Status: testbed.StepFailed, Retryable: true},
		},
	}
	pol := RetryPolicy{MaxAttempts: 3, Backoff: time.Minute}
	if q := queueRetries(nil, rep, 1, 0, pol); len(q) != 0 {
		t.Fatalf("compensated plan queued %d retries", len(q))
	}
	rep.Compensated = false
	if q := queueRetries(nil, rep, 1, 0, pol); len(q) != 1 {
		t.Fatalf("uncompensated retryable failure queued %d retries, want 1", len(q))
	}
}

// rejectAll is a decider whose every plan trips the guard (unknown VM).
type rejectAll struct{ scripted }

func (d *rejectAll) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (Decision, error) {
	d.calls++
	return Decision{Invoked: true, Plan: []cluster.Action{{Kind: cluster.ActionMigrate, VM: "no-such-vm", Host: "h0"}}}, nil
}

func TestRunGuardRejectionsAndBreaker(t *testing.T) {
	tb, util, traces, cat := setup(t)
	g := guard.New(guard.Config{}, cat)
	d := &rejectAll{scripted{name: "rejected"}}
	var buf bytes.Buffer
	rec := provenance.NewRecorder(&buf)
	res, err := Run(tb, d, RunConfig{
		Traces: traces, Duration: 30 * time.Minute, Utility: util,
		Guard: g, Provenance: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GuardRejections != len(res.Windows) {
		t.Errorf("guard rejected %d of %d windows, want all", res.GuardRejections, len(res.Windows))
	}
	for i, w := range res.Windows {
		if !w.GuardRejected || !w.Degraded {
			t.Fatalf("window %d not marked guard-rejected+degraded: %+v", i, w)
		}
	}
	// Every rejected window is degraded, so the breaker trips after four
	// windows and stays open through its eight-window cooldown; those
	// windows are rejected by the breaker itself, before plan validation
	// runs. The half-open probe is invalid too and re-opens it.
	if res.Windows[0].GuardRule != "invalid-plan" {
		t.Errorf("first rejection rule %q, want invalid-plan", res.Windows[0].GuardRule)
	}
	last := res.Windows[len(res.Windows)-1]
	if last.GuardRule != "breaker-open" {
		t.Errorf("final rejection rule %q, want breaker-open", last.GuardRule)
	}
	if g.Breaker() != guard.BreakerOpen {
		t.Errorf("breaker = %v at end, want open", g.Breaker())
	}
	admitted, rejected, opens := g.Stats()
	if admitted != 0 || rejected != int64(len(res.Windows)) || opens != 2 {
		t.Errorf("guard stats admitted/rejected/opens = %d/%d/%d, want 0/%d/2", admitted, rejected, opens, len(res.Windows))
	}
	// The verdicts ride the provenance stream.
	recs, err := provenance.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(res.Windows) {
		t.Fatalf("provenance records = %d, windows = %d", len(recs), len(res.Windows))
	}
	for i, r := range recs {
		if r.Guard == nil {
			t.Fatalf("record %d has no guard verdict", i)
		}
		if r.Guard.Allowed {
			t.Fatalf("record %d guard verdict allowed, want rejected", i)
		}
	}
	if recs[len(recs)-1].Guard.Breaker != "open" {
		t.Errorf("final record breaker %q, want open", recs[len(recs)-1].Guard.Breaker)
	}
}

// TestRunStepProvenanceSurfacesSkipCauses: with the per-step flight
// recorder on, a failed step and its abandoned dependents land in the
// window record with status and cause.
func TestRunStepProvenanceSurfacesSkipCauses(t *testing.T) {
	tb, util, traces, inj := setupExec(t, fault.Options{
		Seed:              4,
		ActionFailRate:    1,
		RetryableFraction: -1,
	}, testbed.RollbackOnFailure)
	d := &twoStep{scripted{name: "twostep"}}
	var buf bytes.Buffer
	rec := provenance.NewRecorder(&buf)
	_, err := Run(tb, d, RunConfig{
		Traces: traces, Duration: 10 * time.Minute, Utility: util,
		Fault: inj, Provenance: rec, StepProvenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := provenance.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var sawFailed, sawSkipped bool
	for _, r := range recs {
		for _, st := range r.Steps {
			switch st.Status {
			case "failed":
				sawFailed = true
				if st.Err == "" {
					t.Fatalf("failed step without cause: %+v", st)
				}
			case "skipped":
				sawSkipped = true
				if st.Err == "" {
					t.Fatalf("skipped step without cause: %+v", st)
				}
			}
		}
	}
	if !sawFailed || !sawSkipped {
		t.Fatalf("step provenance missed outcomes: failed=%v skipped=%v", sawFailed, sawSkipped)
	}
}
