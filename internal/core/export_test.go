package core

import (
	"fmt"
	"testing"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

// This file opens the Perf-Pwr sweep's floor to the external tests, which
// replay the experiments' labs (package experiments imports core, so only
// an external test can build them), and the search's per-child work to the
// tests that count it.

// countChildWork counts, until the test ends, the children every search
// prices and the children it fingerprints.
func countChildWork(t testing.TB) (priced, fingerprinted *int) {
	priced, fingerprinted = new(int), new(int)
	testHookPrice = func() { *priced++ }
	testHookFingerprint = func() { *fingerprinted++ }
	t.Cleanup(func() { testHookPrice, testHookFingerprint = nil, nil })
	return priced, fingerprinted
}

// CountVertexless counts, until the test ends, the entries every search
// pushes without a vertex.
func CountVertexless(t testing.TB) *int {
	n := new(int)
	testHookVertexless = func() { *n++ }
	t.Cleanup(func() { testHookVertexless = nil })
	return n
}

// ObserveKeeps calls f, until the test ends, with every Steady an evaluator
// memoizes and the workload it was evaluated under.
func ObserveKeeps(t testing.TB, f func(e *Evaluator, s Steady, rates map[string]float64)) {
	testHookKeep = f
	t.Cleanup(func() { testHookKeep = nil })
}

// RTByName is a Steady's response times keyed by application name, the
// form utility.Params folds: nil when the Steady has none.
func RTByName(e *Evaluator, st Steady) map[string]float64 {
	if st.RT == nil {
		return nil
	}
	names := e.Model().AppNames()
	rt := make(map[string]float64, len(names))
	for i, name := range names {
		rt[name] = st.RT[i]
	}
	return rt
}

// NewTestEvaluator is buildEnv for the external tests: an evaluator over
// the given hosts and applications and its calibrated default
// configuration.
func NewTestEvaluator(t testing.TB, hosts []cluster.HostSpec, apps []*app.Spec) (*Evaluator, cluster.Config) {
	e := buildEnv(t, hosts, apps)
	return e.eval, e.cfg
}

// FloorAudit is what auditing one Perf-Pwr call's sweep found.
type FloorAudit struct {
	// Arms is how many arms the call's sweep runs: every host count from all
	// down to the floor, times the affinity variants (0 when the call
	// returns without sweeping).
	Arms int
	// Below is how many arms under the floor the audit ran directly; every
	// one ended unpackable.
	Below int
}

// AuditPerfPwr, AuditPerfPwrSubset and AuditPerfPwrMeetingTargets audit the
// sweep their entry point runs for the same arguments: they build its plan,
// run every arm below the plan's floor with newReduction(...).run(), and
// fail when one of them packs or errs.
func AuditPerfPwr(e *Evaluator, rates map[string]float64, opts PerfPwrOptions) (FloorAudit, error) {
	scope, hosts := fullScope(e, opts)
	return auditFloor(e, rates, scope, hosts)
}

func AuditPerfPwrSubset(e *Evaluator, base cluster.Config, rates map[string]float64, hosts []string) (FloorAudit, error) {
	scope, onHosts := subsetScope(e, base, hosts)
	if len(scope.managed) == 0 || len(onHosts) == 0 {
		return FloorAudit{}, nil
	}
	return auditFloor(e, rates, scope, onHosts)
}

func AuditPerfPwrMeetingTargets(e *Evaluator, rates map[string]float64) (FloorAudit, error) {
	scope, hosts := targetsScope(e)
	return auditFloor(e, rates, scope, hosts)
}

func auditFloor(e *Evaluator, rates map[string]float64, scope packScope, hosts []string) (FloorAudit, error) {
	variants := 1
	if len(e.cat.Zones()) > 1 {
		variants = 2
	}
	plan, err := newPackPlan(e, rates, scope, hosts)
	if err != nil {
		return FloorAudit{}, err
	}
	defer plan.release()
	floor := plan.floor()
	audit := FloorAudit{Arms: (len(hosts) - floor + 1) * variants}
	for n := 1; n < floor; n++ {
		for v := 0; v < variants; v++ {
			_, ok, err := newReduction(plan, n, v == 1).run()
			if ok || err != nil {
				return audit, fmt.Errorf("floor %d of %d hosts: the %d-host arm (no affinity %v) packed %v, err %v",
					floor, len(hosts), n, v == 1, ok, err)
			}
			audit.Below++
		}
	}
	return audit, nil
}
