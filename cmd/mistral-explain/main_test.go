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
	"github.com/mistralcloud/mistral/internal/testbed"
)

// The testdata files were recorded by
// mistral-sim -apps 1 -duration 20m -provenance prov.jsonl -trace spans.jsonl -checkpoint ck.json.
const (
	provFile  = "testdata/prov.jsonl"
	spansFile = "testdata/spans.jsonl"
	ckFile    = "testdata/ck.json"
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

	recs, err := readRecords(readFile(t, provFile))
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

// TestOpsReplayFrame renders and checks the ops view of a recorded run,
// from its provenance stream and from its checkpoint: the same frame.
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
		"slowest windows (top 0)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame lacks %q:\n%s", want, out)
		}
	}
	ck, err := runOut(t, "-ops", ckFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, body, _ := strings.Cut(out, "\n"); !strings.HasSuffix(ck, body) {
		t.Errorf("the checkpoint's frame differs from the stream's:\n%s\n%s", ck, out)
	}
	for _, path := range []string{provFile, ckFile} {
		if out, err := runOut(t, "-ops", path, "-check"); err != nil || !strings.HasPrefix(out, "ok: replay") {
			t.Errorf("-ops %s -check: %q, %v", path, out, err)
		}
	}
}

// TestOpsReplayMatchesLiveSLO: the -ops frame and the -series views that
// mistral-explain folds from a run's provenance stream, and from its
// checkpoint, equal what the engine publishes: the /ops document of an
// engine restored from the checkpoint, the live SLO report, and the live
// /v1/query catalog and full query — on the engine goldens' clean and
// faulted, guarded fixtures, and on a run whose measurement failed once and
// was retried.
func TestOpsReplayMatchesLiveSLO(t *testing.T) {
	clean := experiments.Recipe{Lab: experiments.LabOptions{NumApps: 2, Seed: 42}, Strategy: "mistral"}
	faulted := clean
	faulted.FaultRate, faulted.FaultSeed = 0.3, 5
	faulted.ExecPolicy, faulted.Guard = testbed.RollbackOnFailure, true
	for _, fx := range []struct {
		name  string
		rc    experiments.Recipe
		abort bool // the third window's measurement fails and is retried
	}{{"mistral", clean, false}, {"mistral-faults", faulted, false}, {"retried", clean, true}} {
		t.Run(fx.name, func(t *testing.T) {
			dir := t.TempDir()
			provPath, ckPath := filepath.Join(dir, "prov.jsonl"), filepath.Join(dir, "ck.json")
			f, err := os.Create(provPath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			observer := func() *obs.Observer {
				return &obs.Observer{Metrics: obs.NewRegistry(), Ops: obs.NewOpsState(), History: tsdb.New(tsdb.Options{})}
			}
			ob := observer()
			run := scenario.RunConfig{Duration: 40 * 2 * time.Minute, Obs: ob, StepProvenance: fx.rc.Guard}
			run.Provenance = provenance.NewRecorder(f)
			rp, err := fx.rc.Build(run)
			if err != nil {
				t.Fatal(err)
			}
			e := rp.Engine
			for !e.Done() {
				if fx.abort && e.WindowIndex() == 2 && len(e.Result().Windows) == 2 {
					// Move the testbed's clock past the window behind the
					// engine's back, so its measurement is refused; the retry
					// finds the testbed where it was.
					before, err := rp.Testbed.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if _, err := rp.Testbed.MeasureWindow(e.Now() + e.Interval()); err != nil {
						t.Fatal(err)
					}
					if _, err := e.Step(); err == nil {
						t.Fatal("the window's measurement was not refused")
					}
					if err := rp.Testbed.Restore(before); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			res := e.Result()
			if fx.name == "mistral-faults" && (res.Retries == 0 || res.GuardRejections == 0) {
				t.Fatalf("the faulted fixture retried %d actions and rejected %d plans", res.Retries, res.GuardRejections)
			}
			if fx.abort && !res.Windows[2].Aborted {
				t.Fatal("the retried fixture has no aborted window")
			}
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := checkpoint.Write(ckPath, checkpoint.New(fx.rc, snap)); err != nil {
				t.Fatal(err)
			}

			ck, err := checkpoint.Read(ckPath)
			if err != nil {
				t.Fatal(err)
			}
			restoredOb := observer()
			rp2, err := fx.rc.Build(scenario.RunConfig{Duration: run.Duration, Obs: restoredOb})
			if err != nil {
				t.Fatal(err)
			}
			if err := rp2.Engine.Restore(ck.Scenario); err != nil {
				t.Fatal(err)
			}
			opsJSON := func(doc obs.OpsSnapshot) []byte {
				doc.UpdatedUnixMS = 0
				raw, err := json.Marshal(doc)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			wantOps := opsJSON(restoredOb.Ops.Snapshot())
			wantSLO, err := json.Marshal(e.SLO().Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(ob.History.Handler())
			defer srv.Close()
			get := func(query string) string {
				resp, err := http.Get(srv.URL + query)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return string(body)
			}
			all := strings.Join(ob.History.Names(), ",")
			wantList, wantQuery := get("/v1/query"), get("/v1/query?series="+all)

			for _, path := range []string{provPath, ckPath} {
				fr, _, err := foldFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got := opsJSON(fr.ops); !bytes.Equal(got, wantOps) {
					t.Errorf("%s: -ops frame differs from the restored engine's /ops:\nrestored: %s\nfolded:   %s", path, wantOps, got)
				}
				if !bytes.Equal(fr.ops.SLO, wantSLO) {
					t.Errorf("%s: folded SLO report differs from the live one:\nlive:   %s\nfolded: %s", path, wantSLO, fr.ops.SLO)
				}
				if got, err := runOut(t, "-series", "all", "-format", "json", path); err != nil || got != wantList {
					t.Errorf("%s: -series all (%v):\n%s\nlive /v1/query:\n%s", path, err, got, wantList)
				}
				if got, err := runOut(t, "-series", all, "-format", "json", path); err != nil || got != wantQuery {
					t.Errorf("%s: -series %s (%v):\n%s\nlive /v1/query:\n%s", path, all, err, got, wantQuery)
				}
			}
		})
	}
}

// TestReadRunPicksTheLastRun: a provenance stream's views read its last run,
// which a record at window 0 begins unless it retries an aborted window 0;
// a run that starts past window 0 is refused, as are a v1 stream and an
// empty one.
func TestReadRunPicksTheLastRun(t *testing.T) {
	rec := func(window int, end time.Duration, aborted bool) string {
		line, err := json.Marshal(provenance.Record{
			Schema: provenance.SchemaV2, Window: window, Strategy: "Mistral",
			Log: scenario.WindowLog{Time: end, Watts: float64(window), Aborted: aborted},
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(line) + "\n"
	}
	const m = 2 * time.Minute
	stream := rec(0, m, false) + rec(1, 2*m, false) + rec(0, m, true) + rec(0, m, false) + rec(1, 2*m, false)
	_, windows, err := readRun([]byte(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 3 || !windows[0].Aborted || windows[1].Aborted {
		t.Errorf("last run = %+v, want the aborted window 0, its retry and window 1", windows)
	}
	for _, tc := range []struct{ name, data, want string }{
		{"mid-run", rec(3, 4*m, false), "run starts at window 3"},
		{"v1", `{"schema":"mistral.provenance/v1","window":0}`, "re-record the run"},
		{"empty", "\n", "no records"},
	} {
		if _, _, err := readRun([]byte(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: readRun = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestOpsLive polls an /ops endpoint serving a real OpsState and refuses
// documents that break the schema contract.
func TestOpsLive(t *testing.T) {
	ob := &obs.Observer{Ops: obs.NewOpsState(), History: tsdb.New(tsdb.Options{})}
	var logs []scenario.WindowLog
	for i := 0; i < 3; i++ {
		end := time.Duration(i+1) * 2 * time.Minute
		logs = append(logs, scenario.WindowLog{Time: end, CumUtility: float64(i), Invoked: true, SearchTime: time.Second})
	}
	scenario.Fold(ob, "Mistral", logs)
	doc := ob.Ops.Snapshot()
	doc.SlowestWindows = []obs.SlowWindow{{Window: 2, Trace: obs.TraceID(2), WallMS: 2, SearchTimeSec: 1}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, doc)
	}))
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

// FuzzReadAll feeds the file reader (a checkpoint or a provenance stream),
// the stream check and the fold a recorded stream and checkpoint, their
// truncations, a retired v1 record, an aborted window and its retry, and
// malformed lines: nothing may panic, no input may read as both a
// checkpoint and a stream, whatever reads as a run folds into a frame that
// passes -check, and a stream the check accepts must re-encode to bytes
// that read back to the same encoding.
func FuzzReadAll(f *testing.F) {
	raw := readFile(f, provFile)
	f.Add(raw)
	for _, n := range []int{0, 1, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:n])
	}
	ck := readFile(f, ckFile)
	f.Add(ck)
	f.Add(ck[:len(ck)/2])
	f.Add(append(append([]byte{}, ck...), raw...))
	v2 := `{"schema":"` + provenance.SchemaV2 + `",`
	for _, confused := range []string{
		v2 + `"window":0}`,
		v2 + `"window":-1}`,
		v2 + `"window":0,"decisions":[{"search":{"termination":"goal","chosen":{"actions":[{}]}}}]}`,
		v2 + `"window":0,"decisions":[null]}`,
		v2 + `"window":0,"log":{"Time":120000000000,"Aborted":true}}` + "\n" + v2 + `"window":0,"log":{"Time":120000000000,"Watts":400}}`,
		v2 + `"window":3,"log":{"Time":480000000000}}`,
		`{"schema":"mistral.provenance/v1","window":0,"t_sec":120,"strategy":"Mistral","invoked":true,"watts":400}`,
		`{"schema":"mistral.checkpoint-file/v1","scenario":{"result":{"Windows":[{"Time":-1,"Aborted":true},{"Time":0}]}}}`,
		`{"window":"zero"}`,
		"\n\n[]\n",
	} {
		f.Add([]byte(confused))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if strategy, windows, err := readRun(data); err == nil {
			ob := &obs.Observer{Ops: obs.NewOpsState(), History: tsdb.New(tsdb.Options{})}
			eng := scenario.Fold(ob, strategy, windows)
			fr := frame{ops: ob.Ops.Snapshot(), slo: eng.Snapshot()}
			if err := fr.validate(); err != nil {
				t.Fatalf("folded frame fails -check: %v", err)
			}
			fr.render(io.Discard, "fuzz")
		}
		recs, err := provenance.ReadAll(bytes.NewReader(data))
		if _, ckErr := checkpoint.Decode(data); ckErr == nil && err == nil {
			t.Fatal("input reads as both a checkpoint and a provenance stream")
		}
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
	rp, err := rc.Build(scenario.RunConfig{Duration: 20 * time.Minute})
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
