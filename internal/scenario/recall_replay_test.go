package scenario_test

import (
	"testing"

	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/slo"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
)

// TestSLOQuietOverCleanReplay is the other half of the recall tests: over
// the fault-free 195-window Fig. 8/9 replay under Mistral no objective may
// page, and the ones that only a fault can breach must not breach at all.
func TestSLOQuietOverCleanReplay(t *testing.T) {
	lab, err := experiments.NewLab(experiments.LabOptions{NumApps: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := lab.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	eval, err := lab.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	ob := &obs.Observer{Metrics: obs.NewRegistry(), History: tsdb.New(tsdb.Options{})}
	eval.SetObserver(ob)
	dec, err := strategy.NewMistral(eval, strategy.MistralConfig{
		HostGroups:         lab.HostGroups(),
		MonitoringInterval: lab.Util.MonitoringInterval,
		Obs:                ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := scenario.NewEngine(tb, dec, scenario.RunConfig{
		Traces:   lab.Traces,
		Interval: lab.Util.MonitoringInterval,
		Utility:  lab.Util,
		Obs:      ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	for !e.Done() {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.SLO().Snapshot()
	if snap.Windows != 195 {
		t.Fatalf("replayed %d windows, want 195", snap.Windows)
	}
	for _, o := range snap.Objectives {
		switch o.Name {
		case "decide-latency":
			// Long searches are part of a healthy run; the budget is not.
			if !o.Healthy {
				t.Errorf("decide-latency exhausted its budget on a clean replay: %d of %d windows", o.Breaches, o.Windows)
			}
		default:
			if o.Breaches != 0 {
				t.Errorf("%s breached %d of %d clean windows", o.Name, o.Breaches, o.Windows)
			}
		}
	}
	for _, a := range snap.Alerts {
		if a.Severity == slo.SeverityPage {
			t.Errorf("clean replay paged %s at %s: %s", a.Objective, a.Trace, a.Message)
		}
	}
}
