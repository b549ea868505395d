// Command mistral-sim replays the paper's workload scenario on the virtual
// testbed under a chosen control strategy, streaming per-window metrics.
//
// Usage:
//
//	mistral-sim [-strategy mistral|naive|perf-pwr|perf-cost|pwr-cost]
//	            [-apps N] [-duration 6h30m] [-seed N] [-zones N]
//	            [-dvfs] [-csv] [-fault-rate P] [-fault-seed N]
//	            [-provenance FILE] [-trace FILE] [-metrics FILE]
//	            [-log-level LEVEL] [-pprof ADDR]
//	            [-slo] [-slo-exit] [-checkpoint FILE] [-resume FILE]
//	            [-exec-policy fail-forward|rollback] [-guard] [-step-provenance]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/mistralcloud/mistral/internal/checkpoint"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/testbed"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mistral-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("mistral-sim", flag.ExitOnError)
	var rc experiments.Recipe
	rc.RegisterFlags(fs)
	var cli obs.CLI
	cli.RegisterFlags(fs)
	var (
		duration   = fs.Duration("duration", 0, "replay duration (0 = full 6.5h scenario)")
		provPath   = fs.String("provenance", "", "write one decision-provenance record per window as JSONL to FILE (inspect with mistral-explain)")
		asCSV      = fs.Bool("csv", false, "emit CSV instead of aligned columns")
		sloReport  = fs.Bool("slo", false, "run the SLO self-monitoring engine and print the objective/error-budget report to stderr at exit")
		sloExit    = fs.Bool("slo-exit", false, "exit nonzero when any SLO objective's error budget is exhausted at the end of the run (for CI gates; implies the SLO engine)")
		ckptPath   = fs.String("checkpoint", "", "write an engine checkpoint to FILE when the run completes (resume with -resume)")
		resumePath = fs.String("resume", "", "restore the engine from a checkpoint FILE and continue the replay; the checkpoint's recorded recipe (apps, seed, strategy, fault profile, Mistral knobs) overrides the corresponding flags")
		stepProv   = fs.Bool("step-provenance", false, "include per-step execution outcomes (applied/failed/skipped/rolled-back, with causes) in each provenance record (with -provenance)")
	)
	fs.Parse(args)

	ob, closeObs, err := cli.Build()
	if err != nil {
		return err
	}
	if *sloReport || *sloExit {
		// The engine runs the SLO engine whenever an observer is active,
		// and its gauges ride the metrics registry; make sure one exists
		// even when no other observability knob is set.
		if ob == nil {
			ob = &obs.Observer{Metrics: obs.NewRegistry()}
		} else if ob.Metrics == nil {
			ob.Metrics = obs.NewRegistry()
		}
	}
	obs.SetDefault(ob)
	defer func() {
		if cerr := closeObs(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	// A checkpoint records the recipe it was built from; resuming adopts it
	// wholesale so the rebuilt lab, strategy, and fault plane match the
	// snapshot exactly.
	var ckFile *checkpoint.File
	if *resumePath != "" {
		if ckFile, err = checkpoint.Read(*resumePath); err != nil {
			return err
		}
		if rc, err = ckFile.Recipe(); err != nil {
			return err
		}
	}
	var rec *provenance.Recorder
	if *provPath != "" {
		f, ferr := os.Create(*provPath)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		rec = provenance.NewRecorder(f)
	}
	rp, err := rc.Build(scenario.RunConfig{
		Duration:       *duration,
		Provenance:     rec,
		StepProvenance: *stepProv,
	})
	if err != nil {
		return err
	}
	engine := rp.Engine
	if ckFile != nil {
		if err := engine.Restore(ckFile.Scenario); err != nil {
			return err
		}
	}
	res, err := engine.Run()
	if err != nil {
		return err
	}
	if *ckptPath != "" {
		snap, err := engine.Snapshot()
		if err != nil {
			return err
		}
		if err := checkpoint.Write(*ckptPath, checkpoint.New(rp.Recipe, snap)); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "checkpoint: wrote %s (window %d, t=%s)\n", *ckptPath, engine.WindowIndex(), engine.Now())
	}

	appNames := make([]string, len(rp.Lab.AppNames))
	copy(appNames, rp.Lab.AppNames)
	sort.Strings(appNames)

	if *asCSV {
		fmt.Fprint(stdout, "time")
		for _, n := range appNames {
			fmt.Fprintf(stdout, ",%s_reqs,%s_rt_ms", n, n)
		}
		fmt.Fprintln(stdout, ",watts,actions,utility,cum_utility")
		for _, w := range res.Windows {
			fmt.Fprintf(stdout, "%.0f", w.Time.Seconds())
			for _, n := range appNames {
				fmt.Fprintf(stdout, ",%.1f,%.0f", w.Rates[n], w.RTSec[n]*1000)
			}
			fmt.Fprintf(stdout, ",%.0f,%d,%.3f,%.3f\n", w.Watts, w.Actions, w.Utility, w.CumUtility)
		}
	} else {
		fmt.Fprintf(stdout, "%-9s", "window")
		for _, n := range appNames {
			fmt.Fprintf(stdout, "  %8s  %9s", n, "rt(ms)")
		}
		fmt.Fprintf(stdout, "  %6s  %4s  %8s\n", "watts", "act", "cum")
		for _, w := range res.Windows {
			fmt.Fprintf(stdout, "%-9s", w.Time)
			for _, n := range appNames {
				fmt.Fprintf(stdout, "  %8.1f  %9.0f", w.Rates[n], w.RTSec[n]*1000)
			}
			fmt.Fprintf(stdout, "  %6.0f  %4d  %8.1f\n", w.Watts, w.Actions, w.CumUtility)
		}
	}

	fmt.Fprintf(stderr, "\n%s: cumulative utility $%.1f, %d actions, %d decision runs (mean search %v), %d target violations\n",
		res.Strategy, res.CumUtility, res.TotalActions, res.Invocations, res.MeanSearchTime, res.TargetViolations)
	if rec.Enabled() {
		fmt.Fprintf(stderr, "provenance: %d records written to %s (inspect with mistral-explain %[2]s)\n", rec.Count(), *provPath)
	}
	if rp.Fault.Enabled() {
		counts := rp.Fault.Counts()
		fmt.Fprintf(stderr, "faults (rate %.0f%%, seed %d): %d injected — %d degraded windows, %d failed actions (%d retries, %d skipped), %d host crashes, %d sensor drops\n",
			rp.Recipe.FaultRate*100, rp.Recipe.FaultSeed, counts.Injected,
			res.DegradedWindows, res.FailedActions, res.Retries, res.SkippedActions,
			res.HostCrashes, res.SensorDrops)
	}
	// These lines only appear when their (default-off) planes are on, so a
	// default invocation's stderr stays byte-identical across versions.
	if rp.Recipe.ExecPolicy == testbed.RollbackOnFailure {
		fmt.Fprintf(stderr, "rollback: %d plan(s) compensated, %d rollback action(s) executed\n",
			res.CompensatedPlans, res.RolledBackActions)
	}
	if rp.Guard != nil {
		adm, rej, opens := rp.Guard.Stats()
		fmt.Fprintf(stderr, "guard: %d plan(s) admitted, %d rejected, breaker opened %d time(s) (final state %s)\n",
			adm, rej, opens, rp.Guard.Breaker())
	}
	eng := engine.SLO() // non-nil under -slo and -slo-exit: an observer exists

	if *sloReport {
		snap := eng.Snapshot()
		fmt.Fprintf(stderr, "slo: %d windows observed, %d alerts\n", snap.Windows, snap.TotalAlerts)
		for _, o := range snap.Objectives {
			status := "ok"
			if !o.Healthy {
				status = "BUDGET EXHAUSTED"
			}
			last := ""
			if o.LastBreachWindow >= 0 {
				last = fmt.Sprintf(", last breach %s", o.LastBreachTrace)
			}
			fmt.Fprintf(stderr, "  %-16s %s: %d/%d windows breached (budget %.0f%%, used %.0f%%, burn %.2f)%s\n",
				o.Name, status, o.Breaches, o.Windows, o.Budget*100, o.BudgetUsed*100, o.BurnRate, last)
		}
	}
	if *sloExit {
		snap := eng.Snapshot()
		var exhausted []string
		for _, o := range snap.Objectives {
			if !o.Healthy {
				exhausted = append(exhausted, o.Name)
			}
		}
		if len(exhausted) > 0 {
			return fmt.Errorf("slo: error budget exhausted: %s", strings.Join(exhausted, ", "))
		}
	}
	return nil
}
