package experiments

import (
	"fmt"
	"time"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
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
		lab, err := NewLab(LabOptions{NumApps: napps, Seed: seed})
		if err != nil {
			return nil, err
		}
		if opts.Duration > 0 {
			// Shorten the replay window uniformly.
			for name := range lab.Traces {
				tr := lab.Traces[name]
				n := int(opts.Duration/tr.Step) + 1
				if n < len(tr.Rates) {
					tr.Rates = tr.Rates[:n]
				}
			}
		}
		sc := Table1Scenario{
			Apps:  napps,
			VMs:   len(lab.Cat.VMIDs()),
			Hosts: len(lab.Cat.HostNames()),
		}

		// Both algorithms face the search's default expansion cap, as in the
		// Fig. 10 runs; the naive search's cost per expansion grows with the
		// action space, so its duration scales steeply with system size.
		runMistral := func(naive bool) (*scenario.Result, *strategy.Mistral, error) {
			tb, err := lab.NewTestbed()
			if err != nil {
				return nil, nil, err
			}
			eval, err := lab.NewEvaluator()
			if err != nil {
				return nil, nil, err
			}
			m, err := strategy.NewMistral(eval, strategy.MistralConfig{
				HostGroups:         lab.HostGroups(),
				Naive:              naive,
				MonitoringInterval: lab.Util.MonitoringInterval,
				Provenance:         opts.Provenance.Enabled(),
				Search:             core.SearchOptions{TimePerChild: 300 * time.Microsecond},
			})
			if err != nil {
				return nil, nil, err
			}
			r, err := scenario.Run(tb, m, scenario.RunConfig{
				Traces:     lab.Traces,
				Duration:   opts.Duration,
				Interval:   lab.Util.MonitoringInterval,
				Utility:    lab.Util,
				Provenance: opts.Provenance,
			})
			return r, m, err
		}

		aware, awareM, err := runMistral(false)
		if err != nil {
			return nil, fmt.Errorf("experiments: table1 %d-app self-aware: %w", napps, err)
		}
		sc.SelfAwareMean = aware.MeanSearchTime
		l1, l2 := awareM.Stats()
		sc.SelfAwareL1, sc.SelfAwareL2 = l1.MeanSearch(), l2.MeanSearch()
		sc.MistralUtility = aware.CumUtility

		naive, naiveM, err := runMistral(true)
		if err != nil {
			return nil, fmt.Errorf("experiments: table1 %d-app naive: %w", napps, err)
		}
		sc.NaiveMean = naive.MeanSearchTime
		nl1, nl2 := naiveM.Stats()
		sc.NaiveL1, sc.NaiveL2 = nl1.MeanSearch(), nl2.MeanSearch()
		sc.NaiveUtility = naive.CumUtility

		ideal, err := IdealUtility(lab, opts.Duration)
		if err != nil {
			return nil, err
		}
		sc.IdealUtility = ideal
		res.Scenarios = append(res.Scenarios, sc)
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
		duration = lab.ScenarioConfig().Duration
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
