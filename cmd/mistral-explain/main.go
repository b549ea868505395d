// Command mistral-explain inspects a Mistral run, recorded or live.
//
// On a decision-provenance stream (mistral-sim/mistral-exp -provenance) it
// answers "why did the controller do that?": a one-line-per-window summary,
// or with -window N that window's prediction context, the chosen plan's
// Eq. 3 ledger and the top -top rejected alternatives. -trace SPANS.jsonl
// (mistral-sim -trace) adds the window's causal chain — decide → perfpwr →
// search → actions → retries — joined on its trace ID (obs.TraceID, e.g.
// "w000042"). -check validates the stream instead (schema, window
// sequencing, every ledger's sums within 1e-9) and exits non-zero on the
// first inconsistency.
//
// -series and -ops fold, as the engine does (scenario.Fold), the window
// logs of FILE: a checkpoint (mistral-sim -checkpoint, mistral-serve
// /v1/checkpoint) or a provenance stream's last run, by the file's schema.
// "-series all" lists the telemetry series with their digests; "-series
// utility,watts" dumps those series' samples.
//
// Ops mode is the controller-health view: run totals, SLO error budgets,
// alerts, trends and the slowest windows. -addr HOST:PORT polls the /ops
// endpoint of mistral-serve or of a -pprof run; -ops FILE builds the frame
// an engine restored from FILE's windows publishes (no wall clock, so no
// slowest windows). -refresh D redraws every D instead of printing one
// frame, re-reading FILE so a growing one tails. -check
// validates the ops and SLO schemas (mistral.ops/v1, mistral.slo/v1) and that
// the document counts windows 0 through its current one.
//
// -format json prints the provenance and -series views machine-readably.
//
// Usage:
//
//	mistral-explain [-window N] [-top K] [-check] [-trace SPANS.jsonl] PROVENANCE.jsonl
//	mistral-explain -series all|NAME[,NAME...] CHECKPOINT|PROVENANCE.jsonl
//	mistral-explain -addr HOST:PORT | -ops CHECKPOINT|PROVENANCE.jsonl [-refresh 2s] [-check]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/mistralcloud/mistral/internal/checkpoint"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mistral-explain:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mistral-explain", flag.ExitOnError)
	var (
		window    = fs.Int("window", -1, "explain this window in full (default: summary of all windows)")
		topK      = fs.Int("top", 3, "rejected alternatives to show with -window")
		check     = fs.Bool("check", false, "validate the stream (schema, sequencing, ledger arithmetic), or in ops mode the ops/SLO schemas, and exit")
		format    = fs.String("format", "text", "output format: text or json")
		tracePath = fs.String("trace", "", "span JSONL (from mistral-sim -trace) to stitch the window's causal chain from")
		series    = fs.String("series", "", "print telemetry history from a checkpoint or provenance FILE: 'all' lists every series, a comma list dumps those series' samples")
		addr      = fs.String("addr", "", "ops mode: poll a live /ops endpoint at HOST:PORT")
		opsPath   = fs.String("ops", "", "ops mode: build the ops view from a checkpoint or provenance FILE")
		refresh   = fs.Duration("refresh", 0, "ops mode: redraw at this interval (0: one frame)")
	)
	fs.Parse(args)
	if *format != "text" && *format != "json" {
		return fmt.Errorf("-format %q: want text or json", *format)
	}
	if *addr != "" || *opsPath != "" {
		if *addr != "" && *opsPath != "" || fs.NArg() != 0 {
			return fmt.Errorf("usage: mistral-explain -addr HOST:PORT | -ops FILE [-refresh D] [-check]")
		}
		return watchOps(w, *addr, *opsPath, *refresh, *check)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mistral-explain [-window N] [-top K] [-check] [-format text|json] [-trace SPANS.jsonl] FILE")
	}
	if *series != "" {
		return explainSeries(w, fs.Arg(0), *series, *format)
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	recs, err := readRecords(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}

	var spans []obs.SpanRecord
	if *tracePath != "" {
		tf, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		spans, err = obs.ReadSpans(tf)
		tf.Close()
		if err != nil {
			return err
		}
	}

	if *check {
		if err := provenance.CheckStream(recs); err != nil {
			return err
		}
		decisions, ledgers := 0, 0
		for i := range recs {
			decisions += len(recs[i].Decisions)
			for _, d := range recs[i].Decisions {
				if d.Search != nil {
					ledgers += 1 + len(d.Search.Rejected)
				}
			}
		}
		fmt.Fprintf(w, "ok: %d records, %d decisions, %d ledgers consistent within %g\n",
			len(recs), decisions, ledgers, provenance.Tolerance)
		return nil
	}

	if *window >= 0 {
		for i := range recs {
			if recs[i].Window == *window {
				tid := obs.TraceID(recs[i].Window)
				wspans := obs.SpansForTrace(spans, tid)
				if *format == "json" {
					return writeJSON(w, windowDoc{Trace: tid, Record: &recs[i], Spans: wspans})
				}
				explain(w, &recs[i], *topK)
				if *tracePath != "" {
					causalChain(w, tid, wspans, *tracePath)
				}
				return nil
			}
		}
		return fmt.Errorf("window %d not in stream (have %d records)", *window, len(recs))
	}

	if *format == "json" {
		return writeJSON(w, summaryRows(recs))
	}
	summarize(w, recs)
	return nil
}

// readRecords reads a provenance stream, refusing an empty one.
func readRecords(raw []byte) ([]Record, error) {
	recs, err := provenance.ReadAll(bytes.NewReader(raw))
	if err == nil && len(recs) == 0 {
		err = errors.New("no records")
	}
	return recs, err
}

// writeJSON emits v as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// foldFile folds the window logs FILE holds (see readRun) as the engine
// does: the /ops frame an engine restored from them publishes (no wall
// clock, so no slowest windows), and their telemetry history.
func foldFile(path string) (*frame, *tsdb.Store, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	strategy, windows, err := readRun(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	o := &obs.Observer{Ops: obs.NewOpsState(), History: tsdb.New(tsdb.Options{})}
	eng := scenario.Fold(o, strategy, windows)
	return &frame{ops: o.Ops.Snapshot(), slo: eng.Snapshot()}, o.History, nil
}

// readRun decodes the strategy and window logs of the run a file holds: a
// checkpoint's, when the first JSON value's schema names one, else those of
// a provenance stream's last run. A record at window 0 begins a run, unless
// it retries an aborted window 0.
func readRun(raw []byte) (string, []scenario.WindowLog, error) {
	var head struct{ Schema string }
	if json.NewDecoder(bytes.NewReader(raw)).Decode(&head) == nil && strings.HasPrefix(head.Schema, "mistral.checkpoint") {
		ck, err := checkpoint.Decode(raw)
		if err == nil && ck.Scenario.Result == nil {
			err = errors.New("checkpoint has no result")
		}
		if err != nil {
			return "", nil, err
		}
		return ck.Scenario.Strategy, ck.Scenario.Result.Windows, nil
	}
	recs, err := readRecords(raw)
	if err != nil {
		return "", nil, err
	}
	start := 0
	for i := 1; i < len(recs); i++ {
		if recs[i].Window == 0 && !(recs[i-1].Window == 0 && recs[i-1].Log.Aborted) {
			start = i
		}
	}
	if recs[start].Window != 0 {
		return "", nil, fmt.Errorf("run starts at window %d, not 0: read its checkpoint instead", recs[start].Window)
	}
	var windows []scenario.WindowLog
	for _, r := range recs[start:] {
		windows = append(windows, r.Log)
	}
	return recs[start].Strategy, windows, nil
}

// explainSeries prints the telemetry history of the run FILE holds: the
// -series mode.
func explainSeries(w io.Writer, path, sel, format string) error {
	_, store, err := foldFile(path)
	if err != nil {
		return err
	}
	if sel == "all" {
		sums := store.Summaries(0)
		if format == "json" {
			return writeJSON(w, tsdb.ListResponse{
				Schema:     tsdb.Schema,
				LastWindow: store.LastWindow(),
				Series:     sums,
			})
		}
		fmt.Fprintf(w, "telemetry history from %s — %d series, last window %d\n",
			path, len(sums), store.LastWindow())
		fmt.Fprintf(w, "%-18s %8s %12s %12s %12s\n", "series", "windows", "last", "min", "max")
		for _, s := range sums {
			fmt.Fprintf(w, "%-18s %8d %12.4g %12.4g %12.4g\n",
				s.Name, s.Windows, s.Last, s.Min, s.Max)
		}
		return nil
	}

	names := strings.Split(sel, ",")
	resp, err := store.Query(names, 0, -1)
	if err != nil {
		return err
	}
	if format == "json" {
		return writeJSON(w, resp)
	}
	for _, qs := range resp.Series {
		fmt.Fprintf(w, "series %s — %d retained sample(s)\n", qs.Name, len(qs.Points))
		for _, p := range qs.Points {
			fmt.Fprintf(w, "  %s  %g\n", obs.TraceID(p.Window), p.Value)
		}
	}
	return nil
}

// windowDoc is the -window -format json document: the provenance record
// joined with its trace ID and (when -trace was given) its spans.
type windowDoc struct {
	Trace  string             `json:"trace"`
	Record *provenance.Record `json:"record"`
	Spans  []obs.SpanRecord   `json:"spans,omitempty"`
}

// summaryRow is one window of the -format json summary.
type summaryRow struct {
	Window            int      `json:"window"`
	Trace             string   `json:"trace"`
	TimeSec           float64  `json:"t_sec"`
	Strategy          string   `json:"strategy"`
	State             string   `json:"state"`
	Actions           int      `json:"actions"`
	UtilityDollars    float64  `json:"utility_dollars"`
	CumUtilityDollars float64  `json:"cum_utility_dollars"`
	Watts             float64  `json:"watts"`
	Terminations      []string `json:"terminations,omitempty"`
	DegradedReason    string   `json:"degraded_reason,omitempty"`
}

// windowState classifies a record the way the text summary does.
func windowState(r *Record) string {
	switch {
	case r.Log.Degraded:
		return "degraded"
	case r.Busy:
		return "busy"
	case r.Log.Invoked:
		return "invoked"
	}
	return "idle"
}

// terminations lists each controller's outcome ("L2:goal", "L1-0:degraded").
func terminations(r *Record) []string {
	var terms []string
	for _, d := range r.Decisions {
		if d.Degraded {
			terms = append(terms, d.Controller+":degraded")
		} else if d.Search != nil {
			terms = append(terms, d.Controller+":"+d.Search.Termination)
		}
	}
	return terms
}

func summaryRows(recs []Record) []summaryRow {
	rows := make([]summaryRow, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		rows = append(rows, summaryRow{
			Window:            r.Window,
			Trace:             obs.TraceID(r.Window),
			TimeSec:           r.Log.Time.Seconds(),
			Strategy:          r.Strategy,
			State:             windowState(r),
			Actions:           r.Log.Actions,
			UtilityDollars:    r.Log.Utility,
			CumUtilityDollars: r.Log.CumUtility,
			Watts:             r.Log.Watts,
			Terminations:      terminations(r),
			DegradedReason:    r.Log.DegradedReason,
		})
	}
	return rows
}

// summarize prints the one-line-per-window overview.
func summarize(w io.Writer, recs []Record) {
	fmt.Fprintf(w, "%-6s  %9s  %-22s  %-8s  %3s  %10s  %10s  %7s  %s\n",
		"window", "t", "strategy", "state", "act", "utility($)", "cum($)", "watts", "termination")
	for _, r := range summaryRows(recs) {
		if r.State == "degraded" {
			r.State = "DEGRADED"
		}
		fmt.Fprintf(w, "%-6d  %8.0fs  %-22s  %-8s  %3d  %10.3f  %10.1f  %7.0f  %s\n",
			r.Window, r.TimeSec, r.Strategy, r.State, r.Actions,
			r.UtilityDollars, r.CumUtilityDollars, r.Watts, strings.Join(r.Terminations, " "))
	}
}

// explain renders one window's full provenance.
func explain(w io.Writer, r *Record, topK int) {
	fmt.Fprintf(w, "window %d  trace %s  t=%.0fs  strategy=%s\n",
		r.Window, obs.TraceID(r.Window), r.Log.Time.Seconds(), r.Strategy)
	switch {
	case r.Busy:
		fmt.Fprintln(w, "state: busy — a previous plan was still executing; no decision this window")
	case r.Log.Invoked:
		fmt.Fprintf(w, "state: invoked — %d action(s), search %.3fs costing $%.4f\n",
			r.Log.Actions, r.Log.SearchTime.Seconds(), r.Log.SearchCost)
	default:
		fmt.Fprintln(w, "state: idle — workload stayed inside the band; no controller ran")
	}
	if r.Log.Degraded {
		fmt.Fprintf(w, "DEGRADED: %s\n", r.Log.DegradedReason)
	}
	fmt.Fprintf(w, "window utility $%.4f (cum $%.2f), %.0f W\n", r.Log.Utility, r.Log.CumUtility, r.Log.Watts)

	for _, d := range r.Decisions {
		fmt.Fprintf(w, "\n── controller %s ", d.Controller)
		fmt.Fprintln(w, strings.Repeat("─", max(0, 60-len(d.Controller))))
		if d.Degraded {
			fmt.Fprintf(w, "degraded: %s\n", d.DegradedReason)
			continue
		}
		if p := d.Predict; p != nil {
			fmt.Fprintf(w, "prediction: band ±%.0f req/s; stability interval measured %.0fs, ARMA predicted %.0fs (β=%.2f)\n",
				p.BandWidth, p.MeasuredSec, p.PredictedSec, p.Beta)
			if p.Floor != "" {
				fmt.Fprintf(w, "control window: %.0fs (raised by the %s floor)\n", p.CWSec, p.Floor)
			} else {
				fmt.Fprintf(w, "control window: %.0fs (raw prediction)\n", p.CWSec)
			}
		}
		s := d.Search
		if s == nil {
			continue
		}
		fmt.Fprintf(w, "search: %s after %d expansions (%d generated, %d pruned, peak frontier %d), %.3fs costing $%.4f\n",
			s.Termination, s.Expanded, s.Generated, s.PrunedChildren, s.PeakFrontier,
			s.SearchTimeSec, s.SearchCostDollars)
		if s.Truncated {
			fmt.Fprintln(w, "search: TRUNCATED — budget exhausted before the frontier settled")
		}
		for _, ev := range s.Events {
			fmt.Fprintf(w, "  event @%d: %s (%s, dropped %d)\n", ev.Expansion, ev.Kind, ev.Reason, ev.Dropped)
		}
		if s.DroppedEvents > 0 {
			fmt.Fprintf(w, "  (+%d events past the digest cap)\n", s.DroppedEvents)
		}

		fmt.Fprintf(w, "\nchosen plan — Eq. 3 ledger (utility $%.6f):\n", s.Utility)
		ledger(w, &s.Chosen, "  ")

		shown := min(topK, len(s.Rejected))
		for j := 0; j < shown; j++ {
			alt := &s.Rejected[j]
			kind := "prefix"
			if alt.Complete {
				kind = "complete plan"
			}
			fmt.Fprintf(w, "\nrejected #%d — %s at depth %d (f=%.6f = g %.6f + h %.6f, distance %.2f):\n",
				j+1, kind, alt.Depth, alt.F, alt.G, alt.H, alt.Distance)
			ledger(w, &alt.Ledger, "  ")
		}
		if len(s.Rejected) == 0 {
			fmt.Fprintln(w, "\nno rejected alternatives: the frontier was empty when the search committed")
		}
	}
}

// chainLine is one span of a rendered causal chain and its tree depth.
type chainLine struct{ span, depth int }

// chainOrder lays spans out as a parent/child tree in virtual-time order:
// decide → perfpwr → search (expansion batches, cache stats) → action/retry
// events, all sharing one trace ID. Every span is listed exactly once, so
// duplicate span IDs or a parent cycle cannot recurse without bound; spans
// that a cycle cuts off from every root follow at depth 0.
func chainOrder(spans []obs.SpanRecord) []chainLine {
	byID := make(map[uint64]int, len(spans))
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	var roots []int
	for i, s := range spans {
		if _, ok := byID[s.Parent]; ok && s.Parent != s.ID {
			children[s.Parent] = append(children[s.Parent], i)
		} else {
			roots = append(roots, i)
		}
	}
	order := func(idx []int) {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.VStartUS != sb.VStartUS {
				return sa.VStartUS < sb.VStartUS
			}
			return sa.ID < sb.ID
		})
	}
	order(roots)
	seen := make([]bool, len(spans))
	lines := make([]chainLine, 0, len(spans))
	var walk func(i, depth int)
	walk = func(i, depth int) {
		if seen[i] {
			return
		}
		seen[i] = true
		lines = append(lines, chainLine{i, depth})
		kids := children[spans[i].ID]
		order(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	for i := range spans {
		walk(i, 0)
	}
	return lines
}

// causalChain renders the window's spans as the tree chainOrder lays out.
func causalChain(w io.Writer, tid string, spans []obs.SpanRecord, tracePath string) {
	fmt.Fprintf(w, "\n── causal trace %s ", tid)
	fmt.Fprintln(w, strings.Repeat("─", max(0, 60-len(tid))))
	if len(spans) == 0 {
		fmt.Fprintf(w, "no spans for %s in %s (was the run traced with -trace?)\n", tid, tracePath)
		return
	}
	for _, l := range chainOrder(spans) {
		s := spans[l.span]
		fmt.Fprintf(w, "%s%s%s  [%.1fs → %.1fs", strings.Repeat("  ", l.depth+1), s.Name,
			spanAttrs(s), float64(s.VStartUS)/1e6, float64(s.VEndUS)/1e6)
		if s.WallUS > 0 {
			fmt.Fprintf(w, ", wall %.1fms", float64(s.WallUS)/1e3)
		}
		fmt.Fprintln(w, "]")
	}
}

// spanAttrs formats a span's interesting attributes, skipping the join
// keys already displayed structurally.
func spanAttrs(s obs.SpanRecord) string {
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		if k == "trace" || k == "span" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, s.Attrs[k])
	}
	return b.String()
}

// ledger renders one plan's Eq. 3 decomposition.
func ledger(w io.Writer, l *provenance.PlanLedger, pad string) {
	if l.Error != "" {
		fmt.Fprintf(w, "%sledger replay failed: %s\n", pad, l.Error)
		return
	}
	if len(l.Actions) == 0 {
		fmt.Fprintf(w, "%s(no actions: stay in the current configuration)\n", pad)
	}
	for i, a := range l.Actions {
		fmt.Fprintf(w, "%s%2d. %-40s %6.1fs @ %+9.4f $/s = %+9.4f $\n",
			pad, i+1, a.Action, a.DurationSec, a.RateDollarsPerSec, a.CostDollars)
	}
	fmt.Fprintf(w, "%stransient: %+.4f $ over %.1fs\n", pad, l.TransientDollars, l.PlanDurationSec)
	fmt.Fprintf(w, "%ssteady:    %+.4f $ = (perf %+.4f + power %+.4f $/s) x %.1fs remaining\n",
		pad, l.SteadyDollars, l.SteadyPerfRate, l.SteadyPwrRate, l.SteadySec)
	fmt.Fprintf(w, "%stotal:     %+.6f $\n", pad, l.Utility)
}

// Record aliases the provenance record for brevity.
type Record = provenance.Record
