package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/slo"
)

// watchOps is ops mode: it fetches the ops view live from addr or folds it
// from the checkpoint or provenance file at path, then checks it or renders
// it — once, or every refresh until interrupted.
func watchOps(w io.Writer, addr, path string, refresh time.Duration, check bool) error {
	fetch := func() (*frame, error) { return fetchLive(addr) }
	source := "live " + addr
	if path != "" {
		// Re-reading the whole file per refresh lets a growing file tail.
		fetch = func() (*frame, error) {
			f, _, err := foldFile(path)
			return f, err
		}
		source = "replay " + path
	}
	for {
		f, err := fetch()
		if err != nil {
			return err
		}
		if check {
			if err := f.validate(); err != nil {
				return err
			}
			fmt.Fprintf(w, "ok: %s — schemas %s + %s, %d windows, %d objectives, %d alerts\n",
				source, obs.OpsSchema, slo.Schema, f.ops.Windows, len(f.slo.Objectives), f.slo.TotalAlerts)
			return nil
		}
		if refresh > 0 {
			fmt.Fprint(w, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		f.render(w, source)
		if refresh <= 0 {
			return nil
		}
		time.Sleep(refresh)
	}
}

// frame is one rendered snapshot: the ops document plus its decoded SLO
// sub-document.
type frame struct {
	ops obs.OpsSnapshot
	slo slo.Snapshot
}

// validate enforces the -check schema contract.
func (f *frame) validate() error {
	if f.ops.Schema != obs.OpsSchema {
		return fmt.Errorf("ops schema %q, want %q", f.ops.Schema, obs.OpsSchema)
	}
	if f.ops.Windows != f.ops.Window+1 {
		return fmt.Errorf("ops snapshot counts %d windows through window %d, want %d", f.ops.Windows, f.ops.Window, f.ops.Window+1)
	}
	if f.ops.Windows > 0 && f.ops.Trace == "" {
		return fmt.Errorf("ops snapshot window %d missing trace ID", f.ops.Window)
	}
	if len(f.ops.SLO) > 0 || f.slo.Schema != "" {
		if f.slo.Schema != slo.Schema {
			return fmt.Errorf("slo schema %q, want %q", f.slo.Schema, slo.Schema)
		}
		for _, ob := range f.slo.Objectives {
			if ob.Name == "" {
				return fmt.Errorf("slo objective with empty name")
			}
			if ob.Breaches > ob.Windows {
				return fmt.Errorf("slo objective %s: %d breaches over %d windows", ob.Name, ob.Breaches, ob.Windows)
			}
		}
		for _, a := range f.slo.Alerts {
			if a.Trace != obs.TraceID(a.Window) {
				return fmt.Errorf("alert window %d carries trace %q, want %q", a.Window, a.Trace, obs.TraceID(a.Window))
			}
			if a.Severity != slo.SeverityWarn && a.Severity != slo.SeverityPage {
				return fmt.Errorf("alert severity %q", a.Severity)
			}
		}
	}
	for _, h := range f.ops.History {
		if h.Name == "" {
			return fmt.Errorf("history series with empty name")
		}
		if h.Min > h.Max {
			return fmt.Errorf("history series %s: min %g > max %g", h.Name, h.Min, h.Max)
		}
	}
	return nil
}

// fetchLive pulls one /ops document from a running observer.
func fetchLive(addr string) (*frame, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/ops") {
		url = strings.TrimSuffix(url, "/") + "/ops"
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var f frame
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&f.ops); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	if len(f.ops.SLO) > 0 {
		if err := json.Unmarshal(f.ops.SLO, &f.slo); err != nil {
			return nil, fmt.Errorf("%s slo: %w", url, err)
		}
	}
	return &f, nil
}

// render writes one terminal frame.
func (f *frame) render(w io.Writer, source string) {
	o := &f.ops
	fmt.Fprintf(w, "mistral-explain ops — %s\n", source)
	fmt.Fprintf(w, "strategy %s  window %d (%s)  t=%.0fs  windows=%d  cum=$%.2f\n",
		orDash(o.Strategy), o.Window, orDash(o.Trace), o.TimeSec, o.Windows, o.CumUtility)
	fmt.Fprintf(w, "degraded=%d  decide_errors=%d  retries=%d  host_crashes=%d  last_decide_wall=%.1fms\n",
		o.DegradedWindows, o.DecideErrors, o.Retries, o.HostCrashes, o.LastDecideWallMS)

	fmt.Fprintf(w, "\nSLO objectives (%s)\n", orDash(f.slo.Schema))
	fmt.Fprintf(w, "  %-16s %-8s %9s %11s %8s  %s\n",
		"objective", "state", "breaches", "budget used", "burn", "last breach")
	for _, ob := range f.slo.Objectives {
		state := "ok"
		if !ob.Healthy {
			state = "PAGE"
		} else if ob.Breaches > 0 {
			state = "warn"
		}
		fmt.Fprintf(w, "  %-16s %-8s %4d/%-4d %10.0f%% %8.2f  %s\n",
			ob.Name, state, ob.Breaches, ob.Windows, ob.BudgetUsed*100, ob.BurnRate, orDash(ob.LastBreachTrace))
	}
	if len(f.slo.Objectives) == 0 {
		fmt.Fprintln(w, "  (no SLO data)")
	}

	fmt.Fprintf(w, "\nalerts (%d total, last %d)\n", f.slo.TotalAlerts, min(len(f.slo.Alerts), 8))
	start := max(0, len(f.slo.Alerts)-8)
	for _, a := range f.slo.Alerts[start:] {
		fmt.Fprintf(w, "  [%s] %s t=%.0fs %s: %s\n", a.Severity, a.Trace, a.TimeSec, a.Objective, a.Message)
	}
	if len(f.slo.Alerts) == 0 {
		fmt.Fprintln(w, "  (none)")
	}

	if len(o.History) > 0 {
		// The digests' sparklines share one cap; early windows are shorter.
		width := 0
		for _, h := range o.History {
			width = max(width, len(h.Spark))
		}
		fmt.Fprintf(w, "\ntrends (last %d windows)\n", width)
		for _, h := range o.History {
			fmt.Fprintf(w, "  %-16s %s  last %-10s min %-10s max %s\n",
				h.Name, sparkline(h.Spark), fmtVal(h.Last), fmtVal(h.Min), fmtVal(h.Max))
		}
	}

	fmt.Fprintf(w, "\nslowest windows (top %d)\n", len(o.SlowestWindows))
	for _, s := range o.SlowestWindows {
		mark := ""
		if s.Degraded {
			mark = "  DEGRADED"
		}
		fmt.Fprintf(w, "  %s  wall %7.1fms  search %6.2fs%s\n", s.Trace, s.WallMS, s.SearchTimeSec, mark)
	}
	if len(o.SlowestWindows) == 0 {
		fmt.Fprintln(w, "  (none)")
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// sparkRamp is the 8-level block ramp trend sparklines render with.
var sparkRamp = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as a block-character trend, scaled to the
// vector's own min/max (a flat series renders as a low flat line).
func sparkline(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	out := make([]rune, len(vs))
	for i, v := range vs {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRamp)-1))
		}
		out[i] = sparkRamp[idx]
	}
	return string(out)
}

// fmtVal compacts a float for the fixed-width trend table.
func fmtVal(v float64) string {
	if av := max(v, -v); av >= 1000 || (av > 0 && av < 0.01) {
		return fmt.Sprintf("%.3g", v)
	}
	return fmt.Sprintf("%.2f", v)
}
