package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/scenario"
)

// tracer records spans in memory from the benchmark's own files and writes
// them out when the run ends. A nil tracer records nothing, so the untraced
// pass runs the same code without the bookkeeping.
type tracer struct {
	t0     time.Time
	spans  []span
	root   string // name of the per-window root span
	window int    // ID of the open root span, the parent of everything below
}

func newTracer() *tracer { return &tracer{t0: time.Now(), root: "window"} }

// begin opens a span under parent (0 = root) and returns its ID.
func (t *tracer) begin(name string, parent, window int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		Name: name, StartNS: time.Since(t.t0).Nanoseconds(),
		ID: len(t.spans) + 1, Parent: parent, Window: window,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
}

// beginWindow opens the root span of one control window; children opened
// through child until endWindow nest under it.
func (t *tracer) beginWindow(window int) int {
	if t == nil {
		return 0
	}
	t.window = t.begin(t.root, 0, window)
	return t.window
}

func (t *tracer) endWindow() {
	if t == nil {
		return
	}
	t.end(t.window)
	t.window = 0
}

// child times fn as a span under the open window span.
func (t *tracer) child(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	window := -1
	if t.window != 0 {
		window = t.spans[t.window-1].Window
	}
	id := t.begin(name, t.window, window)
	fn()
	t.end(id)
}

// probe times fn as a span attached after the fact to the window span the
// probed input came from (0: to no window), and returns its wall time.
func (t *tracer) probe(name string, parent int, fn func()) float64 {
	t0 := time.Now()
	var id int
	if t != nil {
		window := -1
		if parent != 0 {
			window = t.spans[parent-1].Window
		}
		id = t.begin(name, parent, window)
	}
	fn()
	t.end(id)
	return float64(time.Since(t0).Nanoseconds())
}

// byName sums the durations and self times of every span with this name.
func (t *tracer) byName(name string) (total, self float64) {
	selfs := selfTimes(t.spans)
	for _, s := range t.spans {
		if s.Name == name {
			total += float64(s.EndNS - s.StartNS)
			self += float64(selfs[s.ID])
		}
	}
	return total, self
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decideInput is what one Decide call saw and returned, kept for the layer
// probes that re-run single layers on it after the replay.
type decideInput struct {
	span  int // the window span the call ran under
	now   time.Duration
	cfg   cluster.Config
	rates map[string]float64
	plan  []cluster.Action
}

// tracedDecider wraps a strategy at the scenario/strategy boundary: it
// times every Decide as a strategy.decide span, keeps the inputs, and
// forwards the two optional interfaces the engine discovers by type
// assertion so wrapping changes nothing the engine does.
type tracedDecider struct {
	scenario.Decider
	tr     *tracer
	inputs []decideInput
	plans  int // actions over all returned plans
}

func (d *tracedDecider) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (dec scenario.Decision, err error) {
	d.tr.child("strategy.decide", func() {
		dec, err = d.Decider.Decide(now, cfg, rates)
	})
	d.plans += len(dec.Plan)
	d.inputs = append(d.inputs, decideInput{span: d.tr.window, now: now, cfg: cfg, rates: rates, plan: dec.Plan})
	return dec, err
}

func (d *tracedDecider) SetTraceContext(tc obs.TraceContext) {
	if ta, ok := d.Decider.(scenario.TraceAware); ok {
		ta.SetTraceContext(tc)
	}
}

func (d *tracedDecider) SnapshotState() (json.RawMessage, error) {
	sn, ok := d.Decider.(scenario.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("bench: strategy %q cannot be checkpointed", d.Name())
	}
	return sn.SnapshotState()
}

func (d *tracedDecider) RestoreState(raw json.RawMessage) error {
	sn, ok := d.Decider.(scenario.Snapshotter)
	if !ok {
		return fmt.Errorf("bench: strategy %q cannot be restored", d.Name())
	}
	return sn.RestoreState(raw)
}

// tracedWriter sits under the provenance recorder: every record the engine
// appends becomes a provenance.write span, and its bytes are counted.
type tracedWriter struct {
	w     io.Writer
	tr    *tracer
	bytes int
}

func (w *tracedWriter) Write(p []byte) (n int, err error) {
	w.tr.child("provenance.write", func() { n, err = w.w.Write(p) })
	w.bytes += n
	return n, err
}
