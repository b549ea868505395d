package core_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
)

// floorAuditor audits the Perf-Pwr sweeps of one evaluator, whose arm
// counter it reads, and totals the arms they ran and the arms their floors
// skipped.
type floorAuditor struct {
	t            *testing.T
	eval         *core.Evaluator
	reg          *obs.Registry
	ran, skipped int
}

func newFloorAuditor(t *testing.T, eval *core.Evaluator) *floorAuditor {
	reg := obs.NewRegistry()
	eval.SetObserver(&obs.Observer{Metrics: reg})
	return &floorAuditor{t: t, eval: eval, reg: reg}
}

// check fails unless the audit found every arm below the floor unpackable
// and the entry point's sweep then ran exactly the arms at or above it.
func (a *floorAuditor) check(what string, audit core.FloorAudit, err error, sweep func()) {
	a.t.Helper()
	if err != nil {
		a.t.Fatalf("%s: %v", what, err)
	}
	before := a.reg.CounterValue("perfpwr_sweep_arms_total")
	sweep()
	if ran := int(a.reg.CounterValue("perfpwr_sweep_arms_total") - before); ran != audit.Arms {
		a.t.Fatalf("%s: the sweep ran %d arms, the floor leaves %d", what, ran, audit.Arms)
	}
	a.ran += audit.Arms
	a.skipped += audit.Below
}

// window audits every entry point once — PerfPwr, PerfPwrSubset per host
// group from base, PerfPwrMeetingTargets, PerfPwr pinned to base's zones and
// confined to pools — and returns PerfPwr's ideal. An entry point's own
// error is not the audit's business: a sweep with nothing to pack reports
// it after running its largest arm, as it always has.
func (a *floorAuditor) window(what string, base cluster.Config, rates map[string]float64, groups [][]string, pools map[string][]string) (core.Ideal, error) {
	a.t.Helper()
	e := a.eval
	var full core.Ideal
	var fullErr error
	audit, err := core.AuditPerfPwr(e, rates, core.PerfPwrOptions{})
	a.check(what+" PerfPwr", audit, err, func() { full, fullErr = core.PerfPwr(e, rates, core.PerfPwrOptions{}) })
	for g, group := range groups {
		audit, err := core.AuditPerfPwrSubset(e, base, rates, group)
		a.check(fmt.Sprintf("%s PerfPwrSubset[%d]", what, g), audit, err, func() { _, _ = core.PerfPwrSubset(e, base, rates, group) })
	}
	audit, err = core.AuditPerfPwrMeetingTargets(e, rates)
	a.check(what+" PerfPwrMeetingTargets", audit, err, func() { _, _ = core.PerfPwrMeetingTargets(e, rates) })
	for _, opts := range []struct {
		name string
		opts core.PerfPwrOptions
	}{
		{"pinned", core.PerfPwrOptions{VMZonePins: core.VMZonePinsOf(e.Catalog(), base)}},
		{"pools", core.PerfPwrOptions{AppHostPools: pools}},
	} {
		audit, err := core.AuditPerfPwr(e, rates, opts.opts)
		a.check(what+" PerfPwr["+opts.name+"]", audit, err, func() { _, _ = core.PerfPwr(e, rates, opts.opts) })
	}
	return full, fullErr
}

// hostPools confines application i to hosts 2i and 2i+1, wrapping round the
// host list: the pools of the Perf-Pwr goldens.
func hostPools(apps, hosts []string) map[string][]string {
	pools := make(map[string][]string, len(apps))
	for i, name := range apps {
		pools[name] = []string{hosts[(2*i)%len(hosts)], hosts[(2*i+1)%len(hosts)]}
	}
	return pools
}

// TestSweepFloorIsSound holds the Perf-Pwr sweep's floor to the arms it
// skips. On the golden labs' first goldenWindows windows and on hand-built
// catalogs — a small host ahead of large ones, 128/200/400 MB VMs, hosts
// with more slots than CPU — and for every entry point, each arm below the
// floor, run directly, ends unpackable, and the sweep runs every arm at or
// above it.
func TestSweepFloorIsSound(t *testing.T) {
	var ran, skipped int
	for _, lab := range goldenLabs {
		l, err := experiments.NewLab(lab.opts)
		if err != nil {
			t.Fatal(err)
		}
		eval, err := l.NewEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		a := newFloorAuditor(t, eval)
		pools := hostPools(l.AppNames, l.Cat.HostNames())
		base := l.Initial
		for w := 0; w < goldenWindows; w++ {
			eval.BeginWindow()
			rates := l.Traces.At(time.Duration(w) * l.Util.MonitoringInterval)
			full, err := a.window(fmt.Sprintf("%s w=%02d", lab.name, w), base, rates, l.HostGroups(), pools)
			if err == nil {
				base = full.Config
			}
		}
		ran, skipped = ran+a.ran, skipped+a.skipped
	}

	rubis := func(vmMB int) []*app.Spec {
		apps := []*app.Spec{app.RUBiS("rubis1"), app.RUBiS("rubis2")}
		for _, a := range apps {
			for i := range a.Tiers {
				a.Tiers[i].VMMemoryMB = vmMB
			}
		}
		return apps
	}
	hostsLike := func(adjust func(i int, h *cluster.HostSpec)) []cluster.HostSpec {
		hosts := make([]cluster.HostSpec, 4)
		for i := range hosts {
			hosts[i] = cluster.DefaultHostSpec("h" + string(rune('0'+i)))
			adjust(i, &hosts[i])
		}
		return hosts
	}
	roomy := func(i int, h *cluster.HostSpec) { h.MaxVMs, h.TotalCPUPct, h.UsableCPUPct = 8, 200, 160 }
	for _, c := range []struct {
		name  string
		hosts []cluster.HostSpec
		apps  []*app.Spec
	}{
		{"small host first", hostsLike(func(i int, h *cluster.HostSpec) {
			h.MaxVMs = 2
			if i > 0 {
				roomy(i, h)
				h.MemoryMB = 2048
			}
		}), rubis(200)},
		{"128 MB VMs", hostsLike(roomy), rubis(128)},
		{"200 MB VMs", hostsLike(roomy), rubis(200)},
		{"400 MB VMs", hostsLike(roomy), rubis(400)},
		{"412 MB VMs, two to a host's memory exactly", hostsLike(roomy), rubis(412)},
		{"slots beyond CPU", hostsLike(func(_ int, h *cluster.HostSpec) { h.MaxVMs, h.MemoryMB = 8, 4096 }), rubis(200)},
	} {
		eval, base := core.NewTestEvaluator(t, c.hosts, c.apps)
		a := newFloorAuditor(t, eval)
		hosts := eval.Catalog().HostNames()
		names := []string{"rubis1", "rubis2"}
		groups := [][]string{hosts, hosts[:2], hosts[2:]}
		for _, r := range []float64{2, 20, 50, 80, 95} {
			eval.BeginWindow()
			full, err := a.window(fmt.Sprintf("%s at %g req/s", c.name, r), base, map[string]float64{"rubis1": r, "rubis2": r}, groups, hostPools(names, hosts))
			if err == nil {
				base = full.Config
			}
		}
		ran, skipped = ran+a.ran, skipped+a.skipped
	}
	if skipped == 0 {
		t.Fatal("no sweep had an arm below its floor: the audit checked nothing")
	}
	t.Logf("sweeps ran %d arms; %d below their floors, each unpackable, were skipped", ran, skipped)
}
