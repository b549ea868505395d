package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
)

// runMistralRecorded replays the first 90 minutes of a 1-app scenario under
// Mistral with the given process-default observer installed, returning the
// result and the decision provenance stream.
func runMistralRecorded(t *testing.T, o *obs.Observer) (*scenario.Result, []byte) {
	t.Helper()
	obs.SetDefault(o)
	defer obs.SetDefault(nil)
	var prov bytes.Buffer
	rc := PaperRecipe(7)
	rc.Lab.NumApps = 1
	rp, err := replay(rc, scenario.RunConfig{Duration: 90 * time.Minute, Provenance: provenance.NewRecorder(&prov)})
	if err != nil {
		t.Fatal(err)
	}
	return rp.Engine.Result(), prov.Bytes()
}

// TestTracingIsDeterministic replays the seeded 2-host scenario with
// observability fully disabled and fully enabled (metrics + JSONL spans +
// debug logging) and requires byte-identical decision provenance and
// results: instrumentation must never perturb control behaviour.
func TestTracingIsDeterministic(t *testing.T) {
	baseRes, baseProv := runMistralRecorded(t, nil)

	var trace bytes.Buffer
	full := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTracer(&trace, obs.FormatJSONL),
		Log:     slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})),
	}
	obsRes, obsProv := runMistralRecorded(t, full)
	if err := full.Trace.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(baseProv, obsProv) {
		t.Fatalf("decisions diverge with tracing enabled:\n--- disabled ---\n%s\n--- enabled ---\n%s", baseProv, obsProv)
	}
	if !reflect.DeepEqual(baseRes, obsRes) {
		t.Errorf("results diverge with tracing enabled:\n--- disabled ---\n%+v\n--- enabled ---\n%+v", baseRes, obsRes)
	}

	// The metrics registry must have seen the run.
	if got := full.Metrics.CounterValue("scenario_windows_total"); got != int64(len(obsRes.Windows)) {
		t.Errorf("scenario_windows_total = %d, want %d", got, len(obsRes.Windows))
	}
	if full.Metrics.CounterValue("search_invocations_total") == 0 {
		t.Error("search_invocations_total = 0, want > 0")
	}

	// Span nesting: every perfpwr/search/action:* span must parent (via
	// its chain) to a "decide" root — the Decide → PerfPwr → Search →
	// Action hierarchy of the trace design.
	type rec struct {
		Name   string `json:"name"`
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		VStart int64  `json:"v_start_us"`
		VEnd   int64  `json:"v_end_us"`
	}
	byID := map[uint64]rec{}
	var spans []rec
	sc := bufio.NewScanner(&trace)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("invalid JSONL span %q: %v", sc.Text(), err)
		}
		byID[r.ID] = r
		spans = append(spans, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	rootOf := func(r rec) rec {
		for r.Parent != 0 {
			r = byID[r.Parent]
		}
		return r
	}
	counts := map[string]int{}
	for _, r := range spans {
		switch {
		case r.Name == "decide":
			counts["decide"]++
			if r.Parent != 0 {
				t.Errorf("decide span %d has parent %d, want root", r.ID, r.Parent)
			}
		case r.Name == "perfpwr" || r.Name == "search" || strings.HasPrefix(r.Name, "action:"):
			counts[strings.SplitN(r.Name, ":", 2)[0]]++
			if root := rootOf(r); root.Name != "decide" {
				t.Errorf("%s span %d roots at %q, want decide", r.Name, r.ID, root.Name)
			}
			if r.VEnd < r.VStart {
				t.Errorf("%s span %d ends (%d) before it starts (%d)", r.Name, r.ID, r.VEnd, r.VStart)
			}
		}
	}
	for _, kind := range []string{"decide", "perfpwr", "search"} {
		if counts[kind] == 0 {
			t.Errorf("no %q spans in trace (counts %v)", kind, counts)
		}
	}
	if obsRes.TotalActions > 0 && counts["action"] == 0 {
		t.Errorf("plan executed %d actions but trace has no action spans", obsRes.TotalActions)
	}
}
