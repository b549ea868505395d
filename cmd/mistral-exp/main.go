// Command mistral-exp regenerates the paper's tables and figures from the
// reproduction, rendering each as an ASCII table (or CSV) on stdout or
// into an output directory. -run fig7m is the offline adaptation-cost
// campaign of §III-C on the request-level testbed, printed beside the
// paper-anchored table by -run fig7; -run fig4 and -run fig6 show the
// workloads and their stability intervals with the ARMA estimator's error
// per application.
//
// Usage:
//
//	mistral-exp [-run all|fig1|...|table1|faultsweep|ablations|chaossweep]
//	            [-seed N] [-csv] [-outdir DIR] [-quick]
//	            [-provenance FILE] [-trace FILE] [-metrics FILE]
//	            [-log-level LEVEL] [-pprof ADDR]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/provenance"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mistral-exp:", err)
		os.Exit(1)
	}
}

type emitter struct {
	csv            bool
	outdir         string
	stdout, stderr io.Writer
}

func (e *emitter) emit(name string, tables []experiments.Table) error {
	for i := range tables {
		t := &tables[i]
		body := t.ASCII()
		ext := "txt"
		if e.csv {
			body = t.CSV()
			ext = "csv"
		}
		if e.outdir == "" {
			fmt.Fprintln(e.stdout, body)
			continue
		}
		file := filepath.Join(e.outdir, fmt.Sprintf("%s_%d.%s", name, i, ext))
		if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(e.stderr, "wrote %s\n", file)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("mistral-exp", flag.ExitOnError)
	var cli obs.CLI
	cli.RegisterFlags(fs)
	var (
		which    = fs.String("run", "all", "which experiment: all, fig1, fig3, fig4, fig5, fig6, fig7, fig7m, fig89, fig10, table1, faultsweep, ablations, chaossweep (chaossweep is not part of all)")
		seed     = fs.Uint64("seed", 42, "random seed (the faultsweep and chaossweep fault schedules too)")
		asCSV    = fs.Bool("csv", false, "emit CSV instead of ASCII tables")
		outdir   = fs.String("outdir", "", "write outputs to this directory instead of stdout")
		quick    = fs.Bool("quick", false, "cheaper variants of the slow experiments (shorter replays, fewer trials)")
		provPath = fs.String("provenance", "", "write table1's decision-provenance records as JSONL to FILE (inspect with mistral-explain)")
	)
	fs.Parse(args)

	ob, closeObs, err := cli.Build()
	if err != nil {
		return err
	}
	obs.SetDefault(ob)
	defer func() {
		if cerr := closeObs(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	e := &emitter{csv: *asCSV, outdir: *outdir, stdout: stdout, stderr: stderr}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}

	want := func(name string) bool { return *which == "all" || strings.EqualFold(*which, name) }
	start := time.Now()

	if want("fig1") {
		r, err := experiments.Fig1MigrationCost(*seed)
		if err != nil {
			return fmt.Errorf("fig1: %w", err)
		}
		if err := e.emit("fig1", r.Tables()); err != nil {
			return err
		}
	}
	if want("fig3") {
		if err := e.emit("fig3", []experiments.Table{experiments.Fig3Table(experiments.Fig3UtilityFunction())}); err != nil {
			return err
		}
	}
	if want("fig4") {
		if err := e.emit("fig4", []experiments.Table{experiments.Fig4Workloads(*seed).Table()}); err != nil {
			return err
		}
	}
	if want("fig5") {
		r, err := experiments.Fig5ModelAccuracy(*seed)
		if err != nil {
			return fmt.Errorf("fig5: %w", err)
		}
		if err := e.emit("fig5", []experiments.Table{r.Table()}); err != nil {
			return err
		}
	}
	if want("fig6") {
		if err := e.emit("fig6", experiments.Fig6StabilityEstimation(*seed).Tables()); err != nil {
			return err
		}
	}
	if want("fig7") {
		if err := e.emit("fig7", []experiments.Table{experiments.Fig7Table(experiments.Fig7AdaptationCosts())}); err != nil {
			return err
		}
	}
	if want("fig7m") {
		trials := 3
		if *quick {
			trials = 1
		}
		rows, err := experiments.Fig7MeasuredCampaign(*seed, trials)
		if err != nil {
			return fmt.Errorf("fig7m: %w", err)
		}
		t := experiments.Fig7Table(rows)
		t.Title = "Fig. 7 (measured campaign on the request-level testbed)"
		if err := e.emit("fig7_measured", []experiments.Table{t}); err != nil {
			return err
		}
	}
	if want("fig89") {
		r, err := experiments.Fig89StrategyComparison(*seed)
		if err != nil {
			return fmt.Errorf("fig89: %w", err)
		}
		if err := e.emit("fig8_9", r.Tables()); err != nil {
			return err
		}
	}
	if want("fig10") {
		r, err := experiments.Fig10SearchCost(*seed)
		if err != nil {
			return fmt.Errorf("fig10: %w", err)
		}
		if err := e.emit("fig10", r.Tables()); err != nil {
			return err
		}
	}
	if want("table1") {
		var opts experiments.Table1Options
		if *quick {
			opts.Duration = 2 * time.Hour
		}
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
			opts.Provenance = provenance.NewRecorder(f)
		}
		r, err := experiments.Table1Scalability(*seed, opts)
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		if err := e.emit("table1", []experiments.Table{r.Table()}); err != nil {
			return err
		}
		if opts.Provenance.Enabled() {
			fmt.Fprintf(stderr, "provenance: %d records written to %s\n", opts.Provenance.Count(), *provPath)
		}
	}
	if want("faultsweep") {
		var opts experiments.SweepOptions
		if *quick {
			opts.Rates = []float64{0, 0.15, 0.30}
			opts.Duration = time.Hour
		}
		r, err := experiments.FaultSweep(experiments.PaperRecipe(*seed), opts)
		if err != nil {
			return fmt.Errorf("faultsweep: %w", err)
		}
		if err := e.emit("faultsweep", r.Tables()); err != nil {
			return err
		}
	}
	// Like bench, chaossweep is opt-in: four full replays under maximum
	// chaos are too slow to ride along with every "all" run.
	if strings.EqualFold(*which, "chaossweep") {
		var opts experiments.SweepOptions
		if *quick {
			opts.Rates = []float64{0.30}
			opts.Duration = time.Hour
		}
		r, err := experiments.ChaosSweep(experiments.PaperRecipe(*seed), opts)
		if err != nil {
			return fmt.Errorf("chaossweep: %w", err)
		}
		if err := e.emit("chaossweep", r.Tables()); err != nil {
			return err
		}
		if v := r.Violations(); len(v) > 0 {
			return fmt.Errorf("chaossweep: %d safety invariant breach(es); first: %s", len(v), v[0])
		}
	}
	if want("ablations") {
		t := experiments.Table{
			Title:  "Ablations (beyond the paper)",
			Header: []string{"study", "variant", "utility($)", "actions", "mean search"},
		}
		rows, err := experiments.Ablations(*seed)
		if err != nil {
			return fmt.Errorf("ablations: %w", err)
		}
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{r.Study, r.Label, fmt.Sprintf("%.2f", r.Utility), fmt.Sprint(r.Actions), r.MeanSearch.String()})
		}
		for _, r := range experiments.AblationARMA(*seed) {
			t.Rows = append(t.Rows, []string{"ARMA estimator", r.Label, "-", "-", fmt.Sprintf("%.1f%% err", r.ErrorPct)})
		}
		fid, err := experiments.AblationFidelity(*seed)
		if err != nil {
			return fmt.Errorf("ablations: %w", err)
		}
		t.Rows = append(t.Rows, []string{"testbed fidelity", "analytic vs request", "-", "-",
			fmt.Sprintf("rt gap %.1f%%, watts gap %.2f%%", fid.RTGapPct, fid.WattsGapPct)})
		if err := e.emit("ablations", []experiments.Table{t}); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
