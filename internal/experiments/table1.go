package experiments

import (
	"fmt"
	"time"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/workload"
)

// Table1Scenario is one scalability configuration's outcome.
type Table1Scenario struct {
	Apps, VMs, Hosts int
	// Mean search durations per invocation.
	SelfAwareMean, SelfAwareL1, SelfAwareL2 time.Duration
	NaiveMean, NaiveL1, NaiveL2             time.Duration
	// MistralUtility is the self-aware run's total utility; IdealUtility
	// is the simulated Perf-Pwr optimizer's upper bound ignoring
	// adaptation costs.
	MistralUtility float64
	NaiveUtility   float64
	IdealUtility   float64
}

// Table1Result aggregates the scalability study.
type Table1Result struct {
	Scenarios []Table1Scenario
}

// Table1Options bounds the study's cost.
type Table1Options struct {
	// Duration truncates the replay (zero = the full 6.5 h scenario).
	Duration time.Duration
	// Provenance, when non-nil and enabled, records one decision-provenance
	// record per window of every replay in the study (self-aware and naive,
	// all sizes) into a single JSONL stream; windows restart at 0 at each
	// run boundary. Nil leaves the replays byte-identical to unrecorded runs.
	Provenance *provenance.Recorder
}

// Table1Scalability reproduces Table I: 2/3/4 applications on 4/6/8 hosts
// (10/15/20 VMs) under the two-level hierarchy, reporting per-level mean
// search durations for the Self-Aware and Naive algorithms and total
// utility against the ideal (cost-free) utility.
func Table1Scalability(seed uint64, opts Table1Options) (*Table1Result, error) {
	res := &Table1Result{}
	for _, napps := range []int{2, 3, 4} {
		// Both algorithms face the search's default expansion cap, as in the
		// Fig. 10 runs; the naive search's cost per expansion grows with the
		// action space, so its duration scales steeply with system size.
		run := func(name string) (*Replay, error) {
			rc := PaperRecipe(seed)
			rc.Lab.NumApps, rc.Strategy = napps, name
			rp, err := replay(rc, scenario.RunConfig{Duration: opts.Duration, Provenance: opts.Provenance})
			if err != nil {
				return nil, fmt.Errorf("experiments: table1 %d-app %s: %w", napps, name, err)
			}
			return rp, nil
		}
		aware, err := run("mistral")
		if err != nil {
			return nil, err
		}
		naive, err := run("naive")
		if err != nil {
			return nil, err
		}
		ideal, err := IdealUtility(aware.Lab, opts.Duration)
		if err != nil {
			return nil, err
		}
		ar, nr := aware.Engine.Result(), naive.Engine.Result()
		l1, l2 := aware.Decider.(*strategy.Mistral).Stats()
		nl1, nl2 := naive.Decider.(*strategy.Mistral).Stats()
		res.Scenarios = append(res.Scenarios, Table1Scenario{
			Apps:           napps,
			VMs:            len(aware.Lab.Cat.VMIDs()),
			Hosts:          len(aware.Lab.Cat.HostNames()),
			SelfAwareMean:  ar.MeanSearchTime,
			SelfAwareL1:    l1.MeanSearch(),
			SelfAwareL2:    l2.MeanSearch(),
			NaiveMean:      nr.MeanSearchTime,
			NaiveL1:        nl1.MeanSearch(),
			NaiveL2:        nl2.MeanSearch(),
			MistralUtility: ar.CumUtility,
			NaiveUtility:   nr.CumUtility,
			IdealUtility:   ideal,
		})
	}
	return res, nil
}

// IdealUtility computes Table I's "Ideal" row: the utility the simulated
// Perf-Pwr optimizer would accrue if every window ran in its ideal
// configuration with adaptation costs ignored.
func IdealUtility(lab *Lab, duration time.Duration) (float64, error) {
	eval, err := lab.TrueEvaluator()
	if err != nil {
		return 0, err
	}
	if duration <= 0 {
		duration = workload.ScenarioDuration
	}
	interval := lab.Util.MonitoringInterval
	var total float64
	for t := time.Duration(0); t < duration; t += interval {
		rates := lab.Traces.At(t)
		eval.BeginWindow()
		ideal, err := core.PerfPwr(eval, rates, core.PerfPwrOptions{})
		if err != nil {
			return 0, err
		}
		total += interval.Seconds() * ideal.Steady.NetRate()
	}
	return total, nil
}

// Table renders Table I.
func (r *Table1Result) Table() Table {
	t := Table{
		Title: "Table I — Search durations (ms) and utilities",
		Header: []string{
			"metric", "2-app", "3-app", "4-app",
		},
	}
	row := func(label string, get func(Table1Scenario) string) {
		cells := []string{label}
		for _, sc := range r.Scenarios {
			cells = append(cells, get(sc))
		}
		t.Rows = append(t.Rows, cells)
	}
	ms := func(d time.Duration) string { return f1(float64(d.Microseconds()) / 1000) }
	row("#VMs / #hosts", func(s Table1Scenario) string { return fmt.Sprintf("%d / %d", s.VMs, s.Hosts) })
	row("Self-Aware (avg duration)", func(s Table1Scenario) string { return ms(s.SelfAwareMean) })
	row("- 1st level", func(s Table1Scenario) string { return ms(s.SelfAwareL1) })
	row("- 2nd level", func(s Table1Scenario) string { return ms(s.SelfAwareL2) })
	row("Naive (avg duration)", func(s Table1Scenario) string { return ms(s.NaiveMean) })
	row("- 1st level", func(s Table1Scenario) string { return ms(s.NaiveL1) })
	row("- 2nd level", func(s Table1Scenario) string { return ms(s.NaiveL2) })
	row("Mistral (total utility)", func(s Table1Scenario) string { return f1(s.MistralUtility) })
	row("Naive (total utility)", func(s Table1Scenario) string { return f1(s.NaiveUtility) })
	row("Ideal (total utility)", func(s Table1Scenario) string { return f1(s.IdealUtility) })
	return t
}
