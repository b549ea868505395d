package mistral_test

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral"
)

func TestRecipeDefaults(t *testing.T) {
	rep, err := mistral.Recipe{Lab: mistral.LabOptions{Seed: 1}, Strategy: "mistral"}.Build(mistral.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	lab := rep.Lab
	if got := len(lab.Apps); got != 2 {
		t.Errorf("apps = %d, want 2", got)
	}
	if got := len(lab.Cat.HostNames()); got != 4 {
		t.Errorf("hosts = %d, want 4", got)
	}
	if !lab.Initial.IsCandidate(lab.Cat) {
		t.Error("initial config invalid")
	}
	if len(lab.Traces) != 2 {
		t.Errorf("workload set = %d traces, want 2", len(lab.Traces))
	}
	if lab.Util.MonitoringInterval != 2*time.Minute {
		t.Errorf("monitoring interval = %v", lab.Util.MonitoringInterval)
	}
}

func TestSystemIdealConfiguration(t *testing.T) {
	lab, err := mistral.NewLab(mistral.LabOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	low, err := mistral.PerfPwr(lab, map[string]float64{"rubis1": 5, "rubis2": 5})
	if err != nil {
		t.Fatal(err)
	}
	high, err := mistral.PerfPwr(lab, map[string]float64{"rubis1": 90, "rubis2": 90})
	if err != nil {
		t.Fatal(err)
	}
	if low.Config.NumActiveHosts() > high.Config.NumActiveHosts() {
		t.Errorf("low-load ideal uses %d hosts, high-load %d",
			low.Config.NumActiveHosts(), high.Config.NumActiveHosts())
	}
}

func TestSystemReplayQuickstart(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	rep, err := mistral.Recipe{Lab: mistral.LabOptions{Seed: 4}, Strategy: "mistral"}.Build(mistral.RunConfig{Duration: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rep.Engine.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 15 {
		t.Errorf("windows = %d, want 15", len(res.Windows))
	}
	if res.Strategy != "Mistral" {
		t.Errorf("strategy = %q", res.Strategy)
	}
}

func TestSystemBaselines(t *testing.T) {
	for _, s := range []string{"perf-pwr", "perf-cost", "pwr-cost"} {
		rep, err := mistral.Recipe{Lab: mistral.LabOptions{Seed: 5}, Strategy: s}.Build(mistral.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Decider.Name() == "" {
			t.Errorf("%s: baseline with empty name", s)
		}
	}
}

// stayPut is a caller-written Decider: it never adapts.
type stayPut struct{ windows int }

func (*stayPut) Name() string { return "stay-put" }

func (*stayPut) Decide(time.Duration, mistral.Config, map[string]float64) (mistral.Decision, error) {
	return mistral.Decision{}, nil
}

func (d *stayPut) RecordWindow(float64, float64, float64) { d.windows++ }

func TestRunCallerDecider(t *testing.T) {
	lab, err := mistral.NewLab(mistral.LabOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := lab.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	d := &stayPut{}
	res, err := mistral.Run(tb, d, mistral.RunConfig{
		Traces:   lab.Traces,
		Duration: 10 * time.Minute,
		Interval: lab.Util.MonitoringInterval,
		Utility:  lab.Util,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) != 5 || d.windows != 5 || res.Strategy != "stay-put" || res.TotalActions != 0 {
		t.Errorf("Run: %d windows (%d recorded) of %q with %d actions, want 5 of stay-put with none",
			len(res.Windows), d.windows, res.Strategy, res.TotalActions)
	}
}
