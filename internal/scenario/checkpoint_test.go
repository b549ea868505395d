package scenario_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/checkpoint"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/guard"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// ckEnv is one independently constructed replay environment — its own lab,
// testbed, strategy, observer registry, and provenance sink — standing in
// for a separate process.
type ckEnv struct {
	engine *scenario.Engine
	prov   *bytes.Buffer
	hist   *tsdb.Store
	ops    *obs.OpsState
}

func newCkEnv(t *testing.T) *ckEnv {
	t.Helper()
	lab, err := experiments.NewLab(experiments.LabOptions{NumApps: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := lab.NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	eval, err := lab.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	// A fresh metrics registry per environment, fed by the evaluator and the
	// controllers as the process default would be, as in a restarted
	// process.
	ob := fullObserver()
	eval.SetObserver(ob)
	dec, err := strategy.NewMistral(eval, strategy.MistralConfig{
		HostGroups:         lab.HostGroups(),
		MonitoringInterval: lab.Util.MonitoringInterval,
		Provenance:         true,
		Obs:                ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := &bytes.Buffer{}
	e, err := scenario.NewEngine(tb, dec, scenario.RunConfig{
		Traces:     lab.Traces,
		Duration:   100 * lab.Util.MonitoringInterval,
		Interval:   lab.Util.MonitoringInterval,
		Utility:    lab.Util,
		Obs:        ob,
		Provenance: provenance.NewRecorder(buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &ckEnv{engine: e, prov: buf, hist: ob.History, ops: ob.Ops}
}

// histQueryJSON renders a trend query over every series and the full window
// range.
func histQueryJSON(t *testing.T, hist *tsdb.Store) []byte {
	t.Helper()
	resp, err := hist.Query(hist.Names(), 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func stepN(t *testing.T, e *scenario.Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatalf("step %d: %v", e.WindowIndex(), err)
		}
	}
}

// resultJSON finalizes and serializes a result.
func resultJSON(t *testing.T, e *scenario.Engine) []byte {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(e.Result())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func sloJSON(t *testing.T, e *scenario.Engine) []byte {
	t.Helper()
	raw, err := json.Marshal(e.SLO().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// insertAfter inserts fields after the one occurrence of anchor in a
// checkpoint's JSON.
func insertAfter(t *testing.T, ck []byte, anchor, fields string) []byte {
	t.Helper()
	if n := bytes.Count(ck, []byte(anchor)); n != 1 {
		t.Fatalf("checkpoint holds %d occurrences of %s, want 1", n, anchor)
	}
	return bytes.Replace(ck, []byte(anchor), []byte(anchor+fields), 1)
}

// TestCheckpointRoundTripDeterminism is the resumable engine's hard
// compatibility bar: a 100-window fixed-seed run and a checkpoint-at-50 +
// restore-into-a-fresh-environment run must produce byte-identical
// decisions, provenance streams, and SLO state. The checkpoint crosses a
// JSON serialization boundary inside the checkpoint.File envelope, as it
// would a process boundary. Each input records a different worker count in
// the envelope, the value older builds wrote there; the last is a v3 file
// carrying the keys older builds wrote and this one no longer does: the
// testbed's cost table, each controller's utility history, the evaluator's
// counters (with the in-flight dedup counter) in the decider state, the
// registry's cumulative cache counters, the SLO engine's cache baseline, the
// anomaly detector's state and its history-anomaly objective, the history
// store's own copy of the series, and the SLO engine's whole state,
// objectives and alerts. Restore ignores all of them: the cost table is the
// lab's, and the utility history, the history and the SLO state are read
// from the window logs, so none may show the stale copies' values — here a
// table whose every action takes no time and a history of −1e9 windows.
func TestCheckpointRoundTripDeterminism(t *testing.T) {
	for _, tc := range []struct {
		workers int
		legacy  bool
	}{{0, false}, {1, false}, {4, true}} {
		name := fmt.Sprintf("workers=%d", tc.workers)
		if tc.legacy {
			name += ",dedups=7"
		}
		t.Run(name, func(t *testing.T) {
			full := newCkEnv(t)
			stepN(t, full.engine, 100)

			half := newCkEnv(t)
			stepN(t, half.engine, 50)
			snap, err := half.engine.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ckBytes, err := json.Marshal(&checkpoint.File{Schema: checkpoint.Schema, Strategy: "mistral", Scenario: snap})
			if err != nil {
				t.Fatal(err)
			}
			ckBytes = bytes.Replace(ckBytes, []byte(`"workers":0`), []byte(fmt.Sprintf(`"workers":%d`, tc.workers)), 1)
			if tc.legacy {
				ckBytes = staleV3(t, ckBytes)
				ckBytes = insertAfter(t, ckBytes, `"decider":{`, `"eval":{"hits":3,"evals":41,"dedups":7},`)
				ckBytes = insertAfter(t, ckBytes, `"scenario":{`, `"reg_cache_hits":412,"reg_cache_misses":9105,`+
					`"anomaly":{"ewma":{"decide_wall_ms":{"mean":12.5,"var":4,"n":50}}},`+
					`"history":{"schema":"mistral.tsdb/v1","last_window":49,"series":[`+
					`{"name":"utility","class":"virtual","total":1,"raw":[{"w":0,"v":999}],`+
					`"tiers":[{"factor":8,"buckets":[{"w":0,"min":999,"max":999,"sum":999,"n":1}]}]},`+
					`{"name":"decide_wall_ms","class":"wall","total":1,"raw":[{"w":0,"v":12.5}]}]},`)
				ckBytes = insertAfter(t, ckBytes, `"scenario":{`, `"slo":{"last_hits":409,"last_misses":9064,"windows":50,`+
					`"alerts":[{"window":3,"trace":"w000003","t_sec":480,"objective":"degraded-burn","severity":"warn",`+
					`"value":1,"threshold":0.5,"message":"window ran degraded (fallback decision)"}],"total":7,"objectives":[`+
					`{"name":"history-anomaly","windows":50,"breaches":12,"last_breach":44,"ring":[true,false],"paged":true},`+
					`{"name":"degraded-burn","windows":50,"breaches":7,"last_breach":3,"ring":[true],"paged":true}]},`)
			}

			resumed := newCkEnv(t)
			restored, err := checkpoint.Decode(ckBytes)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.engine.Restore(restored.Scenario); err != nil {
				t.Fatal(err)
			}
			if got := resumed.engine.WindowIndex(); got != 50 {
				t.Fatalf("restored engine at window %d, want 50", got)
			}
			stepN(t, resumed.engine, 50)

			fullRes, resumedRes := resultJSON(t, full.engine), resultJSON(t, resumed.engine)
			if !bytes.Equal(fullRes, resumedRes) {
				t.Errorf("results diverge after restore:\nfull:    %s\nresumed: %s", fullRes, resumedRes)
			}

			cat := append(append([]byte(nil), half.prov.Bytes()...), resumed.prov.Bytes()...)
			if !bytes.Equal(full.prov.Bytes(), cat) {
				t.Errorf("provenance streams diverge: full %d bytes, pre+post-restore %d bytes",
					full.prov.Len(), len(cat))
			}

			if fullSLO, resumedSLO := sloJSON(t, full.engine), sloJSON(t, resumed.engine); !bytes.Equal(fullSLO, resumedSLO) {
				t.Errorf("SLO state diverges after restore:\nfull:    %s\nresumed: %s", fullSLO, resumedSLO)
			}

			// The trend API must answer identically across the restore
			// boundary: the same /v1/query over the overlapping window range
			// returns byte-identical virtual series from either engine.
			if fullHist, resumedHist := histQueryJSON(t, full.hist), histQueryJSON(t, resumed.hist); !bytes.Equal(fullHist, resumedHist) {
				t.Errorf("history query diverges after restore:\nfull:    %s\nresumed: %s", fullHist, resumedHist)
			}
		})
	}
}

// staleV3 relabels a Mistral checkpoint file v3 and gives it the two keys v3
// files carried and Restore now ignores, each holding what would derail the
// resumed run if read: the testbed's cost table with every action's duration
// zeroed, and a utility history of −1e9 windows in every controller.
func staleV3(t *testing.T, ck []byte) []byte {
	t.Helper()
	var file, snap, dec map[string]json.RawMessage
	unmarshal(t, ck, &file)
	unmarshal(t, file["scenario"], &snap)
	snap["schema"] = json.RawMessage(`"mistral.checkpoint/v3"`)
	snap["testbed"] = withKey(t, snap["testbed"], "costs", instantCosts(t))
	unmarshal(t, snap["decider"], &dec)
	history := json.RawMessage(`[{"utility":-1e9,"perf_rate":-1e6,"pwr_rate":-1e6}]`)
	for _, level := range []string{"l3", "l2"} {
		if dec[level] != nil {
			dec[level] = withKey(t, dec[level], "history", history)
		}
	}
	var l1 []json.RawMessage
	unmarshal(t, dec["l1"], &l1)
	for i := range l1 {
		l1[i] = withKey(t, l1[i], "history", history)
	}
	dec["l1"] = marshal(t, l1)
	snap["decider"] = marshal(t, dec)
	file["scenario"] = marshal(t, snap)
	return marshal(t, file)
}

// withKey sets one key of a JSON object.
func withKey(t *testing.T, obj json.RawMessage, key string, val json.RawMessage) json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	unmarshal(t, obj, &m)
	m[key] = val
	return marshal(t, m)
}

func unmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// instantCosts renders the paper's cost table as v3 checkpoints carried it,
// with every action's duration zeroed.
func instantCosts(t *testing.T) []byte {
	t.Helper()
	type row struct {
		Kind    cluster.ActionKind `json:"kind"`
		Tier    string             `json:"tier,omitempty"`
		Entries []cost.Entry       `json:"entries"`
	}
	var rows []row
	table := cost.PaperTable()
	for _, k := range table.Keys() {
		entries := slices.Clone(table.Entries(k))
		for i := range entries {
			entries[i].Duration = 0
		}
		rows = append(rows, row{Kind: k.Kind, Tier: k.Tier, Entries: entries})
	}
	return marshal(t, map[string][]row{"rows": rows})
}

// windowView is everything an operator can see of one completed window
// besides the decision itself: the expansions history series, the SLO
// report, and how far the provenance stream has grown.
type windowView struct {
	log       scenario.WindowLog
	hist, slo []byte
	provLen   int
}

func stepViews(t *testing.T, env *ckEnv, n int) []windowView {
	t.Helper()
	views := make([]windowView, 0, n)
	for i := 0; i < n; i++ {
		sr, err := env.engine.Step()
		if err != nil {
			t.Fatalf("step %d: %v", sr.Index, err)
		}
		q, err := env.hist.Query([]string{"expansions"}, 0, sr.Index)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		sloRaw, err := json.Marshal(env.engine.SLO().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, windowView{
			log:     sr.Window,
			hist:    hist,
			slo:     sloRaw,
			provLen: env.prov.Len(),
		})
	}
	return views
}

// TestResumeCarriesNoMemoEntries pins what a checkpoint must and must not
// carry now that the eval memo is per-window: a Mistral engine with an
// observer, snapshotted at windows 7 and 20 and restored into a fresh
// environment, continues for 15 windows with the same window logs,
// provenance bytes, expansions series and SLO report as a run that never
// stopped, from a checkpoint that holds no memo entries and stays small.
func TestResumeCarriesNoMemoEntries(t *testing.T) {
	const after = 15
	full := newCkEnv(t)
	want := stepViews(t, full, 20+after)

	for _, at := range []int{7, 20} {
		t.Run(fmt.Sprintf("at=%d", at), func(t *testing.T) {
			half := newCkEnv(t)
			stepN(t, half.engine, at)
			snap, err := half.engine.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ckBytes, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			if len(ckBytes) >= 256<<10 {
				t.Errorf("checkpoint at window %d encodes to %d bytes, want < 256 KB", at, len(ckBytes))
			}
			if bytes.Contains(snap.Decider, []byte(`"entries"`)) {
				t.Errorf("decider state still carries memo entries: %.200s", snap.Decider)
			}

			var restored scenario.Snapshot
			if err := json.Unmarshal(ckBytes, &restored); err != nil {
				t.Fatal(err)
			}
			resumed := newCkEnv(t)
			if err := resumed.engine.Restore(&restored); err != nil {
				t.Fatal(err)
			}
			got := stepViews(t, resumed, after)
			provBase := want[at-1].provLen
			for i, g := range got {
				w := want[at+i]
				if !reflect.DeepEqual(g.log, w.log) {
					t.Errorf("window %d log diverges:\nfull:    %+v\nresumed: %+v", at+i, w.log, g.log)
				}
				if !bytes.Equal(g.hist, w.hist) {
					t.Errorf("window %d expansions series diverge:\nfull:    %s\nresumed: %s", at+i, w.hist, g.hist)
				}
				if !bytes.Equal(g.slo, w.slo) {
					t.Errorf("window %d SLO report diverges:\nfull:    %s\nresumed: %s", at+i, w.slo, g.slo)
				}
				if g.provLen != w.provLen-provBase {
					t.Errorf("window %d provenance stream at %d bytes, uninterrupted run at %d", at+i, g.provLen, w.provLen-provBase)
				}
			}
			if fullProv := full.prov.Bytes()[provBase:want[at+after-1].provLen]; !bytes.Equal(fullProv, resumed.prov.Bytes()) {
				t.Errorf("provenance bytes diverge over windows %d..%d", at, at+after-1)
			}
		})
	}
}

// opsCounts is the part of an /ops snapshot that is a function of the run:
// everything but the wall-clock fields.
func opsCounts(s obs.OpsSnapshot) obs.OpsSnapshot {
	s.LastDecideWallMS, s.SlowestWindows, s.UpdatedUnixMS = 0, nil, 0
	return s
}

// TestOpsCarriesOnAfterRestore: a run restored at window 40 publishes the
// /ops document an uninterrupted run publishes — current window, window
// count, degraded/error/retry/crash totals, SLO state and history digests —
// instead of counting from zero again: at once, with no slowest-window
// entry (wall time is not checkpointed), and after one more window.
func TestOpsCarriesOnAfterRestore(t *testing.T) {
	for _, after := range []int{0, 1} {
		t.Run(fmt.Sprintf("after=%d", after), func(t *testing.T) {
			full := newCkEnv(t)
			stepN(t, full.engine, 40+after)

			half := newCkEnv(t)
			stepN(t, half.engine, 40)
			snap, err := half.engine.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var restored scenario.Snapshot
			if err := json.Unmarshal(raw, &restored); err != nil {
				t.Fatal(err)
			}
			resumed := newCkEnv(t)
			if err := resumed.engine.Restore(&restored); err != nil {
				t.Fatal(err)
			}
			stepN(t, resumed.engine, after)

			live := resumed.ops.Snapshot()
			if after == 0 && len(live.SlowestWindows) != 0 {
				t.Errorf("restored /ops ranks %d slowest windows, want none", len(live.SlowestWindows))
			}
			want, got := opsCounts(full.ops.Snapshot()), opsCounts(live)
			if got.Window != 39+after || got.Windows != 40+after || len(got.SLO) == 0 {
				t.Errorf("restored /ops at window %d with %d windows (slo %d B), want %d and %d with an slo section",
					got.Window, got.Windows, len(got.SLO), 39+after, 40+after)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if gotJSON, err := json.Marshal(got); err != nil || !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("restored /ops diverges (%v):\nfull:    %s\nresumed: %s", err, wantJSON, gotJSON)
			}
		})
	}
}

// TestCheckpointMismatchRejected exercises the restore guard rails: retired
// schemas (v3, the previous one, still restores), a wrong strategy, fault-
// and guard-plane mismatches, a checkpointable strategy's missing state and
// a window index its window logs do not reach must all fail cleanly, before
// Restore has changed anything, instead of silently resuming into a
// different environment.
func TestCheckpointMismatchRejected(t *testing.T) {
	env := newCkEnv(t)
	stepN(t, env.engine, 2)
	snap, err := env.engine.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The target has state of its own, so "untouched" is observable.
	target := newCkEnv(t)
	stepN(t, target.engine, 3)
	state := func() []byte {
		s, err := target.engine.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	before := state()

	for _, tc := range []struct {
		name    string
		mutate  func(*scenario.Snapshot)
		wantErr string
	}{
		{"schema v1", func(s *scenario.Snapshot) { s.Schema = "mistral.checkpoint/v1" }, "unsupported checkpoint schema"},
		{"schema v2", func(s *scenario.Snapshot) { s.Schema = "mistral.checkpoint/v2" }, "unsupported checkpoint schema"},
		{"strategy", func(s *scenario.Snapshot) { s.Strategy = "Perf-Pwr" }, "is for strategy"},
		// The checkpoint was taken without fault injection or a guard; a
		// snapshot that claims either plane's state came from a differently
		// wired environment.
		{"fault plane", func(s *scenario.Snapshot) { s.Fault = &fault.State{} }, "fault-injection state"},
		{"guard plane", func(s *scenario.Snapshot) { s.Guard = &guard.State{} }, "guard state"},
		{"no decider state", func(s *scenario.Snapshot) { s.Decider = nil }, "carries no state for checkpointable strategy"},
		{"window count", func(s *scenario.Snapshot) { s.WindowIndex++ }, "holds 2 completed windows"},
	} {
		bad := *snap
		tc.mutate(&bad)
		err := target.engine.Restore(&bad)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Restore = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
		if after := state(); !bytes.Equal(before, after) {
			t.Errorf("%s: refused Restore changed the engine", tc.name)
		}
	}
	// The previous schema still restores, to the same state.
	v3 := *snap
	v3.Schema = "mistral.checkpoint/v3"
	if err := target.engine.Restore(&v3); err != nil {
		t.Errorf("the checkpoint relabelled v3: %v", err)
	}
	fromV3 := state()
	if err := target.engine.Restore(snap); err != nil {
		t.Errorf("the unmodified checkpoint: %v", err)
	}
	if !bytes.Equal(state(), fromV3) {
		t.Error("the checkpoint relabelled v3 restores to a different state")
	}
}

// paperDay is the paper's 195-window day for 2 applications under Mistral;
// faulted adds 30 % injected faults, rollback and the admission guard.
func paperDay(faulted bool) experiments.Recipe {
	rc := experiments.Recipe{Lab: experiments.LabOptions{NumApps: 2, Seed: 42}, Strategy: "mistral"}
	if faulted {
		rc.FaultRate, rc.ExecPolicy, rc.Guard = 0.3, testbed.RollbackOnFailure, true
	}
	return rc
}

// buildDay builds rc's replay over its first windows (0 = the whole day)
// with the given observer.
func buildDay(t *testing.T, rc experiments.Recipe, ob *obs.Observer, windows int) *scenario.Engine {
	t.Helper()
	rp, err := rc.Build(scenario.RunConfig{Obs: ob, Duration: time.Duration(windows) * 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return rp.Engine
}

func fullObserver() *obs.Observer {
	return &obs.Observer{Metrics: obs.NewRegistry(), Ops: obs.NewOpsState(), History: tsdb.New(tsdb.Options{})}
}

// viewsJSON renders the SLO report and a query over every history series
// and the whole run.
func viewsJSON(t *testing.T, e *scenario.Engine, hist *tsdb.Store) []byte {
	t.Helper()
	q, err := hist.Query(hist.Names(), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal([]any{e.SLO().Snapshot(), q})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCheckpointCarriesEachWindowOnce: the telemetry history and the SLO
// state are read from the checkpoint's window logs, so a checkpoint of the
// paper's 195-window day is byte-identical with observers and without, on
// the clean day and on the faulted, guarded one.
func TestCheckpointCarriesEachWindowOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full-day replay")
	}
	for _, faulted := range []bool{false, true} {
		t.Run(fmt.Sprintf("faulted=%v", faulted), func(t *testing.T) {
			checkpoint := func(ob *obs.Observer) []byte {
				e := buildDay(t, paperDay(faulted), ob, 0)
				if _, err := e.Run(); err != nil {
					t.Fatal(err)
				}
				if n := len(e.Result().Windows); n != 195 {
					t.Fatalf("%d windows, want the 195-window day", n)
				}
				snap, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(snap)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			if with, without := checkpoint(fullObserver()), checkpoint(nil); !bytes.Equal(with, without) {
				t.Errorf("observers change the checkpoint: %d B with, %d B without", len(with), len(without))
			}
		})
	}
}

// TestResumeRefoldsTheViews: a guarded, rollback, faulted replay restored
// at windows 7, 33 and 60 serves the SLO report and the full history query
// of the run that never stopped, both right after the restore and at the
// end.
func TestResumeRefoldsTheViews(t *testing.T) {
	const windows = 120
	cuts := []int{7, 33, 60}
	rc := paperDay(true)
	fullOb := fullObserver()
	full := buildDay(t, rc, fullOb, windows)
	atCut := map[int][]byte{}
	for i := 1; i <= windows; i++ {
		stepN(t, full, 1)
		if slices.Contains(cuts, i) {
			atCut[i] = viewsJSON(t, full, fullOb.History)
		}
	}
	if full.SLO().Snapshot().Objectives[2].Windows == 0 {
		t.Fatal("the replay checked no plan with the guard")
	}
	end := viewsJSON(t, full, fullOb.History)

	for _, cut := range cuts {
		t.Run(fmt.Sprintf("at=%d", cut), func(t *testing.T) {
			half := buildDay(t, rc, fullObserver(), windows)
			stepN(t, half, cut)
			snap, err := half.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var restored scenario.Snapshot
			if err := json.Unmarshal(raw, &restored); err != nil {
				t.Fatal(err)
			}
			ob := fullObserver()
			resumed := buildDay(t, rc, ob, windows)
			if err := resumed.Restore(&restored); err != nil {
				t.Fatal(err)
			}
			if got := viewsJSON(t, resumed, ob.History); !bytes.Equal(got, atCut[cut]) {
				t.Errorf("views at the cut diverge:\nfull:    %s\nresumed: %s", atCut[cut], got)
			}
			stepN(t, resumed, windows-cut)
			if got := viewsJSON(t, resumed, ob.History); !bytes.Equal(got, end) {
				t.Errorf("views at the end diverge:\nfull:    %s\nresumed: %s", end, got)
			}
		})
	}
}

// TestEngineMetrics: the SLO counters count the alerts the engine published
// — a warn alert is one objective's breach — and a restore into the same
// registry, which refolds the SLO engine, counts nothing.
func TestEngineMetrics(t *testing.T) {
	ob := fullObserver()
	e := buildDay(t, paperDay(true), ob, 60)
	stepN(t, e, 60)
	rep := e.SLO().Snapshot()
	want := map[string]int64{"slo_alerts_total": int64(rep.TotalAlerts)}
	breaches := 0
	for _, o := range rep.Objectives {
		want["slo_breach_"+strings.ReplaceAll(o.Name, "-", "_")+"_total"] = int64(o.Breaches)
		breaches += o.Breaches
	}
	want["slo_breaches_total"] = int64(breaches)
	if breaches == 0 || rep.TotalAlerts <= breaches {
		t.Fatalf("%d breaches, %d alerts: the replay must breach and page", breaches, rep.TotalAlerts)
	}
	check := func(when string) {
		t.Helper()
		for name, n := range want {
			if got := ob.Metrics.CounterValue(name); got != n {
				t.Errorf("%s: %s = %d, want %d", when, name, got, n)
			}
		}
	}
	check("live")

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := buildDay(t, paperDay(true), ob, 60).Restore(snap); err != nil {
		t.Fatal(err)
	}
	check("after a restore into the same registry")
}
