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
//	            [-slo] [-slo-exit] [-profile-dir DIR] [-profile-budget D]
//	            [-profile-max N] [-checkpoint FILE] [-resume FILE]
//	            [-exec-policy fail-forward|rollback] [-guard] [-step-provenance]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/mistralcloud/mistral/internal/checkpoint"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/guard"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/slo"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mistral-sim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		strategyName = flag.String("strategy", "mistral", "control strategy: mistral, naive, perf-pwr, perf-cost, pwr-cost")
		numApps      = flag.Int("apps", 2, "number of RUBiS applications (1-4)")
		duration     = flag.Duration("duration", 0, "replay duration (0 = full 6.5h scenario)")
		seed         = flag.Uint64("seed", 42, "random seed")
		zones        = flag.Int("zones", 1, "number of data centers (>1 enables the WAN extension; mistral/naive only)")
		dvfs         = flag.Bool("dvfs", false, "equip hosts with 60/80% DVFS levels (the §VI extension)")
		faultRate    = flag.Float64("fault-rate", 0, "action-failure probability in [0,1]; >0 enables the fault plane (delays, host crashes, and sensor faults scale with it)")
		faultSeed    = flag.Uint64("fault-seed", 0, "fault schedule seed (0 = use -seed)")
		provPath     = flag.String("provenance", "", "write one decision-provenance record per window as JSONL to FILE (inspect with mistral-explain)")
		asCSV        = flag.Bool("csv", false, "emit CSV instead of aligned columns")
		tracePath    = flag.String("trace", "", "write span trace to FILE (.json = Chrome trace_event for Perfetto, else JSONL)")
		metricsPath  = flag.String("metrics", "", `write metrics registry dump to FILE at exit ("-" = stderr)`)
		logLevel     = flag.String("log-level", "", "structured logging to stderr: debug, info, warn, error")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof and expvar (/debug/vars) on ADDR, e.g. localhost:6060")
		sloReport    = flag.Bool("slo", false, "run the SLO self-monitoring engine and print the objective/error-budget report to stderr at exit")
		profileDir   = flag.String("profile-dir", "", "capture pprof CPU/heap artifacts into DIR when a decide blows its wall-clock latency budget")
		profileBud   = flag.Duration("profile-budget", 500*time.Millisecond, "wall-clock decide budget that triggers pprof capture (with -profile-dir)")
		profileMax   = flag.Int("profile-max", 8, "maximum pprof artifacts written (with -profile-dir)")
		sloExit      = flag.Bool("slo-exit", false, "exit nonzero when any SLO objective's error budget is exhausted at the end of the run (for CI gates; implies the SLO engine)")
		ckptPath     = flag.String("checkpoint", "", "write an engine checkpoint to FILE when the run completes (resume with -resume)")
		resumePath   = flag.String("resume", "", "restore the engine from a checkpoint FILE and continue the replay; the checkpoint's recorded environment (apps, seed, strategy, fault profile) overrides the corresponding flags")
		execPolicy   = flag.String("exec-policy", "fail-forward", "plan execution policy: fail-forward (keep the applied prefix on failure) or rollback (compensate it, restoring the pre-plan configuration)")
		guardOn      = flag.Bool("guard", false, "run every plan through the admission guard and adaptation circuit breaker before execution")
		stepProv     = flag.Bool("step-provenance", false, "include per-step execution outcomes (applied/failed/skipped/rolled-back, with causes) in each provenance record (with -provenance)")
	)
	flag.Parse()

	ob, closeObs, err := obs.CLI{TracePath: *tracePath, MetricsPath: *metricsPath, LogLevel: *logLevel, PprofAddr: *pprofAddr}.Build()
	if err != nil {
		return err
	}
	if *sloReport || *sloExit {
		// The SLO gauges ride the metrics registry; make
		// sure one exists even when no other observability knob is set.
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

	// A checkpoint records the environment it was built from; resuming
	// adopts that recipe wholesale so the rebuilt lab, strategy, and fault
	// plane match the snapshot exactly.
	var ckFile *checkpoint.File
	if *resumePath != "" {
		ckFile, err = checkpoint.Read(*resumePath)
		if err != nil {
			return err
		}
		*strategyName = ckFile.Strategy
		*faultRate = ckFile.FaultRate
		*faultSeed = ckFile.FaultSeed
		*execPolicy = ckFile.ExecPolicy
		*guardOn = ckFile.Guard
	}
	exec, err := testbed.ParseExecPolicy(*execPolicy)
	if err != nil {
		return err
	}

	labOpts := experiments.LabOptions{NumApps: *numApps, Seed: *seed, Zones: *zones}
	if *dvfs {
		labOpts.DVFSLevels = []float64{0.6, 0.8}
	}
	if ckFile != nil {
		labOpts = ckFile.Lab
	}
	lab, err := experiments.NewLab(labOpts)
	if err != nil {
		return err
	}
	if *faultRate < 0 || *faultRate > 1 {
		return fmt.Errorf("-fault-rate %v out of [0,1]", *faultRate)
	}
	if *faultSeed == 0 {
		*faultSeed = *seed
	}
	inj := fault.New(fault.Profile(*faultRate, *faultSeed))
	tb, err := lab.NewTestbedExec(inj, exec)
	if err != nil {
		return err
	}
	var grd *guard.Guard
	if *guardOn {
		grd = guard.New(guard.Config{Obs: ob}, lab.Cat)
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
	eval, err := lab.NewEvaluator()
	if err != nil {
		return err
	}
	decider, err := strategy.New(*strategyName, eval, lab.Util, strategy.MistralConfig{
		HostGroups:         lab.HostGroups(),
		MonitoringInterval: lab.Util.MonitoringInterval,
		Provenance:         rec.Enabled(),
	})
	if err != nil {
		return err
	}

	// Self-monitoring: an explicit engine when -slo asked for the report
	// (scenario.Run otherwise builds its own whenever an observer is
	// active), plus optional latency-triggered pprof capture.
	var eng *slo.Engine
	if *sloReport || *sloExit {
		eng = slo.New(slo.Config{Interval: lab.Util.MonitoringInterval}, ob)
	}
	var prof *obs.Profiler
	if *profileDir != "" {
		prof, err = obs.NewProfiler(*profileDir, *profileBud, *profileMax)
		if err != nil {
			return err
		}
		defer prof.Close()
	}

	engine, err := scenario.NewEngine(tb, decider, scenario.RunConfig{
		Traces:         lab.Traces,
		Duration:       *duration,
		Interval:       lab.Util.MonitoringInterval,
		Utility:        lab.Util,
		Fault:          inj,
		Guard:          grd,
		Provenance:     rec,
		StepProvenance: *stepProv,
		SLO:            eng,
		Profile:        prof,
	})
	if err != nil {
		return err
	}
	if ckFile != nil {
		if err := engine.Restore(ckFile.Scenario); err != nil {
			return err
		}
	}
	for !engine.Done() {
		if _, err := engine.Step(); err != nil {
			return err
		}
	}
	if err := engine.Close(); err != nil {
		return err
	}
	res := engine.Result()
	if *ckptPath != "" {
		snap, err := engine.Snapshot()
		if err != nil {
			return err
		}
		if err := checkpoint.Write(*ckptPath, &checkpoint.File{
			Schema:     checkpoint.Schema,
			Strategy:   strings.ToLower(*strategyName),
			Lab:        labOpts,
			FaultRate:  *faultRate,
			FaultSeed:  *faultSeed,
			ExecPolicy: exec.String(),
			Guard:      *guardOn,
			Scenario:   snap,
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "checkpoint: wrote %s (window %d, t=%s)\n", *ckptPath, engine.WindowIndex(), engine.Now())
	}

	appNames := make([]string, len(lab.AppNames))
	copy(appNames, lab.AppNames)
	sort.Strings(appNames)

	if *asCSV {
		fmt.Print("time")
		for _, n := range appNames {
			fmt.Printf(",%s_reqs,%s_rt_ms", n, n)
		}
		fmt.Println(",watts,actions,utility,cum_utility")
		for _, w := range res.Windows {
			fmt.Printf("%.0f", w.Time.Seconds())
			for _, n := range appNames {
				fmt.Printf(",%.1f,%.0f", w.Rates[n], w.RTSec[n]*1000)
			}
			fmt.Printf(",%.0f,%d,%.3f,%.3f\n", w.Watts, w.Actions, w.Utility, w.CumUtility)
		}
	} else {
		fmt.Printf("%-9s", "window")
		for _, n := range appNames {
			fmt.Printf("  %8s  %9s", n, "rt(ms)")
		}
		fmt.Printf("  %6s  %4s  %8s\n", "watts", "act", "cum")
		for _, w := range res.Windows {
			fmt.Printf("%-9s", w.Time)
			for _, n := range appNames {
				fmt.Printf("  %8.1f  %9.0f", w.Rates[n], w.RTSec[n]*1000)
			}
			fmt.Printf("  %6.0f  %4d  %8.1f\n", w.Watts, w.Actions, w.CumUtility)
		}
	}

	fmt.Fprintf(os.Stderr, "\n%s: cumulative utility $%.1f, %d actions, %d decision runs (mean search %v), %d target violations\n",
		res.Strategy, res.CumUtility, res.TotalActions, res.Invocations, res.MeanSearchTime, res.TargetViolations)
	if rec.Enabled() {
		fmt.Fprintf(os.Stderr, "provenance: %d records written to %s (inspect with mistral-explain %[2]s)\n", rec.Count(), *provPath)
	}
	if inj.Enabled() {
		counts := inj.Counts()
		fmt.Fprintf(os.Stderr, "faults (rate %.0f%%, seed %d): %d injected — %d degraded windows, %d failed actions (%d retries, %d skipped), %d host crashes, %d sensor drops\n",
			*faultRate*100, *faultSeed, counts.Injected,
			res.DegradedWindows, res.FailedActions, res.Retries, res.SkippedActions,
			res.HostCrashes, res.SensorDrops)
	}
	// These lines only appear when their (default-off) planes are on, so a
	// default invocation's stderr stays byte-identical across versions.
	if exec == testbed.RollbackOnFailure {
		fmt.Fprintf(os.Stderr, "rollback: %d plan(s) compensated, %d rollback action(s) executed\n",
			res.CompensatedPlans, res.RolledBackActions)
	}
	if grd != nil {
		adm, rej, opens := grd.Stats()
		fmt.Fprintf(os.Stderr, "guard: %d plan(s) admitted, %d rejected, breaker opened %d time(s) (final state %s)\n",
			adm, rej, opens, grd.Breaker())
	}
	if eng != nil && *sloReport {
		snap := eng.Snapshot()
		fmt.Fprintf(os.Stderr, "slo: %d windows observed, %d alerts\n", snap.Windows, snap.TotalAlerts)
		for _, o := range snap.Objectives {
			status := "ok"
			if !o.Healthy {
				status = "BUDGET EXHAUSTED"
			}
			last := ""
			if o.LastBreachWindow >= 0 {
				last = fmt.Sprintf(", last breach %s", o.LastBreachTrace)
			}
			fmt.Fprintf(os.Stderr, "  %-16s %s: %d/%d windows breached (budget %.0f%%, used %.0f%%, burn %.2f)%s\n",
				o.Name, status, o.Breaches, o.Windows, o.Budget*100, o.BudgetUsed*100, o.BurnRate, last)
		}
	}
	if prof != nil {
		if arts := prof.Artifacts(); len(arts) > 0 {
			fmt.Fprintf(os.Stderr, "profiling: %d pprof artifact(s) in %s (budget %v)\n", len(arts), *profileDir, *profileBud)
		}
	}
	if *sloExit && eng != nil {
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
