// Command bench is the repository's benchmark: four workloads, nine
// end-to-end metrics in speed-normalised reference time, per-layer metrics
// from a separate traced pass, and a correctness gate, all driven through
// the repository's public functions and the mistral-serve binary. See
// README.md in this directory for every definition.
//
//	go run -C bench . [-workload NAME[,NAME]] [-seed N] [-seconds N]
//	                  [-trace 0|1] [-reps N] [-out FILE] [-aa] [-quick]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics for the (last) workload run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are the command's flags.
type options struct {
	workloads string
	seed      uint64
	seconds   int
	trace     int
	reps      int
	out       string
	aa        bool
	quick     bool
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 28

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workloads, "workload", "", "workloads to run, comma separated (default: all four)")
	fs.Uint64Var(&o.seed, "seed", 42, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "wall-clock budget of one pass over one workload; repetition counts follow from it")
	fs.IntVar(&o.trace, "trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics and bench/out/trace-<workload>.jsonl; default: both")
	fs.IntVar(&o.reps, "reps", 0, "fix the replay repetitions instead of deriving them from -seconds")
	fs.StringVar(&o.out, "out", "", "also write the full report as JSON to this file")
	fs.BoolVar(&o.aa, "aa", false, "run the untraced pass twice and compare every end-to-end metric against its bound")
	fs.BoolVar(&o.quick, "quick", false, "3 repetitions of a truncated replay: for tests only, never for reported numbers")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds < 1 || o.trace < -1 || o.trace > 1 || o.reps < 0 {
		return o, fmt.Errorf("flag out of range")
	}
	return o, nil
}

// report is one workload's outcome: the contract's four keys, plus detail
// that only -out keeps.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	notes    []string
	failures []string
}

func (r *report) absorb(attempted int, failures []string) {
	r.Attempted += attempted
	r.failures = append(r.failures, failures...)
	r.Failed = len(r.failures)
	r.Correct = r.Failed == 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	specs := workloads
	if o.workloads != "" {
		specs = nil
		for _, name := range strings.Split(o.workloads, ",") {
			w, err := findWorkload(name)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 2
			}
			specs = append(specs, w)
		}
	}
	l, err := findLayout()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	// One P for the program under test, here and in the daemon (see
	// spawn): with two, the collector's background workers run on the
	// second core, and whoever else wants that core decides how much
	// marking the controller's own goroutine has to do instead. Under a
	// bursty neighbour that doubled the spread of every wall metric.
	runtime.GOMAXPROCS(1)
	j := &janitor{}
	defer j.close()
	sig := make(chan os.Signal, 1)
	// SIGPIPE too: a reader that closes standard output early (| head) would
	// otherwise kill the process before the daemon and scratch are gone.
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	defer signal.Stop(sig)
	go func() {
		<-sig
		j.close()
		os.Exit(130)
	}()
	cfg := runConfig{
		seed: o.seed, budget: time.Duration(o.seconds) * time.Second,
		reps: o.reps, quick: o.quick, layout: l, janitor: j,
	}

	code := 0
	var reports []*report
	for _, spec := range specs {
		rep, err := runWorkload(spec, cfg, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", spec.name, err)
			return 1
		}
		reports = append(reports, rep)
		if !rep.Correct {
			code = 1
		}
	}
	if o.out != "" {
		if err := writeReports(o.out, o, reports); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// The contract's result lines, one per workload, the last one last.
	for _, rep := range reports {
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// runWorkload makes the passes the flags ask for over one workload and
// prints every metric by name and unit.
func runWorkload(spec workloadSpec, cfg runConfig, o options, stdout io.Writer) (*report, error) {
	rep := &report{workload: spec.name, Correct: true, Metrics: make(map[string]metric)}
	fmt.Fprintf(stdout, "== %s — %s\n", spec.name, spec.why)
	add := func(ms map[string]metric, note string) {
		for k, v := range ms {
			rep.Metrics[k] = v
		}
		rep.notes = append(rep.notes, note)
		printMetrics(stdout, ms, note)
	}
	if o.trace != 1 {
		first, err := runE2E(spec, cfg)
		if err != nil {
			return nil, err
		}
		ms, note := first.endToEnd()
		rep.absorb(first.attempted, first.failures)
		add(ms, note)
		if o.aa {
			second, err := runE2E(spec, cfg)
			if err != nil {
				return nil, err
			}
			ms2, note2 := second.endToEnd()
			rep.absorb(second.attempted, second.failures)
			printMetrics(stdout, ms2, note2)
			rep.absorb(0, compareAA(stdout, spec.name, ms, ms2))
		}
	}
	if o.trace != 0 {
		traced, err := runTraced(spec, cfg)
		if err != nil {
			return nil, err
		}
		rep.absorb(traced.attempted, traced.failures)
		add(traced.metrics, traced.note)
	}
	fmt.Fprintf(stdout, "   operations: %d failed / %d attempted\n", rep.Failed, rep.Attempted)
	for _, f := range rep.failures {
		fmt.Fprintf(stdout, "   FAILED: %s\n", f)
	}
	return rep, nil
}

func printMetrics(w io.Writer, ms map[string]metric, note string) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "   %-34s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	fmt.Fprintf(w, "   [%s]\n", note)
}

// compareAA prints, per end-to-end metric, the relative difference between
// two untraced passes over the same code beside the metric's bound, and
// returns one failure per breach.
func compareAA(w io.Writer, workload string, a, b map[string]metric) []string {
	var failures []string
	fmt.Fprintf(w, "   A/A %-22s %12s %12s %9s %7s\n", "metric", "first", "second", "diff", "bound")
	for _, def := range endToEndMetrics {
		x, y := a[def.Name].Value, b[def.Name].Value
		var diff float64
		if x != 0 {
			diff = (y - x) / x
		}
		verdict := ""
		if diff > def.Bound || diff < -def.Bound {
			verdict = "  BREACH"
			failures = append(failures, fmt.Sprintf("A/A: %s %s differs by %+.2f%% (bound %.0f%%)", workload, def.Name, 100*diff, 100*def.Bound))
		}
		fmt.Fprintf(w, "   A/A %-22s %12.6g %12.6g %+8.2f%% %6.1f%%%s\n", def.Name, x, y, 100*diff, 100*def.Bound, verdict)
	}
	return failures
}

func writeReports(path string, o options, reports []*report) error {
	type full struct {
		Workload  string            `json:"workload"`
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Failures  []string          `json:"failures,omitempty"`
		Notes     []string          `json:"notes"`
		Metrics   map[string]metric `json:"metrics"`
	}
	doc := struct {
		Seed      uint64 `json:"seed"`
		Seconds   int    `json:"seconds"`
		Quick     bool   `json:"quick,omitempty"`
		Workloads []full `json:"workloads"`
	}{Seed: o.seed, Seconds: o.seconds, Quick: o.quick}
	for _, r := range reports {
		doc.Workloads = append(doc.Workloads, full{r.workload, r.Correct, r.Attempted, r.Failed, r.failures, r.notes, r.Metrics})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
