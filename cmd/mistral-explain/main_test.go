package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/checkpoint"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/slo"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// The testdata streams were recorded by
// mistral-sim -apps 1 -duration 20m -provenance prov.jsonl -trace spans.jsonl.
const (
	provFile  = "testdata/prov.jsonl"
	spansFile = "testdata/spans.jsonl"
)

// runOut runs the command with args and returns what it printed.
func runOut(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// encode renders records as the JSONL a recorder writes.
func encode(t testing.TB, recs []provenance.Record) []byte {
	t.Helper()
	var b bytes.Buffer
	for i := range recs {
		line, err := json.Marshal(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(line, '\n'))
	}
	return b.Bytes()
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// writeTemp writes data to a fresh file and returns its path.
func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckRecordedStream: -check accepts a recorded stream and refuses it
// once one ledger's transient no longer sums its actions.
func TestCheckRecordedStream(t *testing.T) {
	out, err := runOut(t, "-check", provFile)
	if err != nil || !strings.HasPrefix(out, "ok: 10 records") {
		t.Fatalf("-check on the recording: %q, %v", out, err)
	}

	recs, err := readRecords(provFile)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := false
	for i := range recs {
		for _, d := range recs[i].Decisions {
			if d.Search != nil && !perturbed {
				d.Search.Chosen.TransientDollars += 0.5
				perturbed = true
			}
		}
	}
	if !perturbed {
		t.Fatal("recording holds no search ledger")
	}
	bad := writeTemp(t, "prov.jsonl", encode(t, recs))
	if out, err := runOut(t, "-check", bad); err == nil || !strings.Contains(err.Error(), "transient") {
		t.Fatalf("-check on a perturbed ledger: %q, %v; want a transient mismatch", out, err)
	}
}

// TestOpsReplayFrame renders and checks the ops view of a recorded run.
func TestOpsReplayFrame(t *testing.T) {
	out, err := runOut(t, "-ops", provFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mistral-explain ops — replay " + provFile,
		"window 9 (w000009)",
		"windows=10",
		"SLO objectives (" + slo.Schema + ")",
		"decide-latency",
		"slowest windows (top 10)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame lacks %q:\n%s", want, out)
		}
	}
	if out, err := runOut(t, "-ops", provFile, "-check"); err != nil || !strings.HasPrefix(out, "ok: replay") {
		t.Errorf("-ops -check: %q, %v", out, err)
	}
}

// TestOpsReplayMatchesLiveSLO: replaying a guarded, faulted run's
// provenance reproduces the SLO report the run published live, guard
// verdicts included.
func TestOpsReplayMatchesLiveSLO(t *testing.T) {
	rc := experiments.Recipe{
		Lab: experiments.LabOptions{NumApps: 2, Seed: 42}, Strategy: "mistral",
		FaultRate: 0.3, ExecPolicy: testbed.RollbackOnFailure, Guard: true,
	}
	path := filepath.Join(t.TempDir(), "prov.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rp, err := rc.Build(strategy.MistralConfig{}, scenario.RunConfig{
		Duration:   60 * 2 * time.Minute,
		Obs:        &obs.Observer{Metrics: obs.NewRegistry()},
		Provenance: provenance.NewRecorder(f),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	live := rp.Engine.SLO().Snapshot()
	if live.Objectives[2].Breaches == 0 {
		t.Fatal("the run's guard rejected no plan")
	}
	fr, err := replayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(live)
	if got, _ := json.Marshal(fr.slo); !bytes.Equal(got, want) {
		t.Errorf("replayed SLO report diverges from the live one:\nlive:   %s\nreplay: %s", want, got)
	}
}

// TestOpsLive polls an /ops endpoint serving a real OpsState and refuses
// documents that break the schema contract.
func TestOpsLive(t *testing.T) {
	ops := obs.NewOpsState()
	ops.BeginRun("Mistral", 2*time.Minute)
	eng := slo.New(2*time.Minute, nil)
	for i := 0; i < 3; i++ {
		end := time.Duration(i+1) * 2 * time.Minute
		eng.ObserveWindow(slo.WindowObs{Window: i, Time: end, Invoked: true, SearchTime: time.Second})
		ops.RecordWindow(obs.OpsWindow{Window: i, TimeSec: end.Seconds(), CumUtility: float64(i), WallMS: 2, SearchTimeSec: 1})
	}
	raw, err := json.Marshal(eng.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	ops.SetSLO(raw)
	srv := httptest.NewServer(ops.Handler())
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")

	out, err := runOut(t, "-addr", addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"live " + addr, "window 2 (w000002)", "windows=3", "wall     2.0ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("frame lacks %q:\n%s", want, out)
		}
	}
	if out, err := runOut(t, "-addr", addr, "-check"); err != nil || !strings.Contains(out, "3 windows, 3 objectives") {
		t.Errorf("-check: %q, %v", out, err)
	}

	for _, tc := range []struct{ name, doc, wantErr string }{
		{"wrong schema", `{"schema":"mistral.ops/v0","window":-1}`, "ops schema"},
		{"counts restarted", `{"schema":"mistral.ops/v1","window":40,"trace":"w000040","windows":1}`, "counts 1 windows through window 40"},
		{"wrong slo schema", `{"schema":"mistral.ops/v1","window":-1,"slo":{"schema":"mistral.slo/v0"}}`, "slo schema"},
	} {
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, tc.doc)
		}))
		_, err := runOut(t, "-addr", bad.URL, "-check")
		bad.Close()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: -check = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestCausalChainDuplicateSpanIDs: two spans sharing an ID whose parents
// point at each other render once each instead of recursing.
func TestCausalChainDuplicateSpanIDs(t *testing.T) {
	spans := writeTemp(t, "spans.jsonl", []byte(`{"name":"a","id":1,"v_start_us":0,"v_end_us":1,"wall_us":0,"attrs":{"trace":"w000000"}}
{"name":"b","id":1,"parent":2,"v_start_us":1,"v_end_us":2,"wall_us":0,"attrs":{"trace":"w000000"}}
{"name":"c","id":2,"parent":1,"v_start_us":2,"v_end_us":3,"wall_us":0,"attrs":{"trace":"w000000"}}
`))
	out, err := runOut(t, "-window", "0", "-trace", spans, provFile)
	if err != nil {
		t.Fatal(err)
	}
	_, chain, ok := strings.Cut(out, "causal trace w000000")
	if !ok {
		t.Fatalf("no causal trace in:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(chain), "\n")[1:]
	if len(lines) != 3 {
		t.Fatalf("chain renders %d spans, want 3:\n%s", len(lines), chain)
	}
	for i, name := range []string{"a", "c", "b"} {
		if got := strings.Fields(lines[i])[0]; got != name {
			t.Errorf("chain line %d is %q, want %q:\n%s", i, got, name, chain)
		}
	}
}

// FuzzReadAll feeds the provenance reader and stream check a recorded
// stream, its truncations and malformed lines: nothing may panic, and a
// stream the check accepts must re-encode to bytes that read back to the
// same encoding.
func FuzzReadAll(f *testing.F) {
	raw := readFile(f, provFile)
	f.Add(raw)
	for _, n := range []int{0, 1, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:n])
	}
	for _, confused := range []string{
		`{"schema":"` + provenance.SchemaV1 + `","window":0}`,
		`{"schema":"` + provenance.SchemaV1 + `","window":-1}`,
		`{"schema":"` + provenance.SchemaV1 + `","window":0,"decisions":[{"search":{"termination":"goal","chosen":{"actions":[{}]}}}]}`,
		`{"schema":"` + provenance.SchemaV1 + `","window":0,"decisions":[null]}`,
		`{"window":"zero"}`,
		"\n\n[]\n",
	} {
		f.Add([]byte(confused))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := provenance.ReadAll(bytes.NewReader(data))
		if err != nil || provenance.CheckStream(recs) != nil {
			return
		}
		enc := encode(t, recs)
		again, err := provenance.ReadAll(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-reading an accepted stream: %v", err)
		}
		if reenc := encode(t, again); !bytes.Equal(reenc, enc) {
			t.Fatalf("accepted stream does not re-read equal:\nfirst:  %s\nsecond: %s", enc, reenc)
		}
	})
}

// FuzzCausalChain feeds the span reader and the causal-chain layout a
// recorded trace and span graphs with duplicate IDs, cycles and
// self-parents: the layout must terminate and list every span exactly once.
func FuzzCausalChain(f *testing.F) {
	f.Add(readFile(f, spansFile))
	for _, graph := range []string{
		`{"id":1}` + "\n" + `{"id":1,"parent":2}` + "\n" + `{"id":2,"parent":1}`,
		`{"id":1,"parent":2}` + "\n" + `{"id":2,"parent":1}`,
		`{"id":3,"parent":3}`,
		`{"id":1,"parent":1}` + "\n" + `{"id":1,"parent":1}`,
	} {
		f.Add([]byte(graph))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := obs.ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		seen := make([]bool, len(spans))
		lines := chainOrder(spans)
		for _, l := range lines {
			if seen[l.span] {
				t.Fatalf("span %d listed twice in %+v", l.span, lines)
			}
			seen[l.span] = true
		}
		if len(lines) != len(spans) {
			t.Fatalf("%d of %d spans listed", len(lines), len(spans))
		}
		causalChain(io.Discard, "w000000", spans, "fuzz")
	})
}

// TestSeriesFromCheckpointWithoutObservers: -series rebuilds the telemetry
// history from the checkpoint's window logs, so it reads a checkpoint
// written with observability off.
func TestSeriesFromCheckpointWithoutObservers(t *testing.T) {
	rc := experiments.Recipe{Lab: experiments.LabOptions{NumApps: 1, Seed: 42}, Strategy: "mistral"}
	rp, err := rc.Build(strategy.MistralConfig{}, scenario.RunConfig{Duration: 20 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	snap, err := rp.Engine.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := checkpoint.Write(path, checkpoint.New(rc, snap)); err != nil {
		t.Fatal(err)
	}

	out, err := runOut(t, "-series", "all", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "13 series, last window 9") {
		t.Errorf("-series all:\n%s", out)
	}
	out, err = runOut(t, "-series", "utility", "-format", "json", path)
	if err != nil {
		t.Fatal(err)
	}
	var resp tsdb.QueryResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatal(err)
	}
	windows := rp.Engine.Result().Windows
	if len(resp.Series) != 1 || len(resp.Series[0].Points) != len(windows) {
		t.Fatalf("-series utility = %+v, want %d points", resp, len(windows))
	}
	for i, p := range resp.Series[0].Points {
		if p.Window != i || p.Value != windows[i].Utility {
			t.Errorf("point %d = %+v, want window %d utility %v", i, p, i, windows[i].Utility)
		}
	}
}
