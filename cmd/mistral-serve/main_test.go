package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// testRecipe is the test daemon's environment.
var testRecipe = experiments.Recipe{Strategy: "perf-pwr", Lab: experiments.LabOptions{NumApps: 1, Seed: 7}}

// newTestServer builds a 1-app daemon on the cheap perf-pwr strategy and
// mounts the control API beside /v1/query exactly as the obs plane would.
func newTestServer(t testing.TB) (*server, *httptest.Server) {
	t.Helper()
	ob := &obs.Observer{Metrics: obs.NewRegistry(), Ops: obs.NewOpsState(), History: tsdb.New(tsdb.Options{})}
	s := &server{ob: ob}
	if err := s.rebuild(testRecipe); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	for path, h := range s.routes() {
		mux.Handle(path, h)
	}
	mux.Handle("/v1/query", ob.History.Handler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, ts
}

// do issues a request and returns status, decoded error message (if the
// body carries one), and raw body.
func do(t *testing.T, req *http.Request) (int, string, []byte) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	json.Unmarshal(body, &e)
	return resp.StatusCode, e.Error, body
}

func post(t *testing.T, url, contentType, body string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return req
}

func TestServeMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/window", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/window = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("405 body not a structured error (err=%v, body=%+v)", err, e)
	}

	// Writes on a read endpoint are refused the same way.
	status, msg, _ := do(t, post(t, ts.URL+"/v1/provenance", "application/json", "{}"))
	if status != http.StatusMethodNotAllowed || msg == "" {
		t.Errorf("POST /v1/provenance = %d %q, want 405 with error", status, msg)
	}
	status, _, _ = do(t, post(t, ts.URL+"/v1/state", "application/json", "{}"))
	if status != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/state = %d, want 405", status)
	}
}

func TestServeContentTypeEnforced(t *testing.T) {
	_, ts := newTestServer(t)
	status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "text/plain", "{}"))
	if status != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain POST = %d, want 415", status)
	}
	if !strings.Contains(msg, "application/json") {
		t.Errorf("415 error %q does not name the expected type", msg)
	}
	// application/json with parameters and an absent Content-Type both pass.
	if status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json; charset=utf-8", "{}")); status != http.StatusOK {
		t.Errorf("json-with-params POST = %d (%s), want 200", status, msg)
	}
	if status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "", "{}")); status != http.StatusOK {
		t.Errorf("no-content-type POST = %d (%s), want 200", status, msg)
	}
}

func TestServeStrictBodyValidation(t *testing.T) {
	s, ts := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"unknown field", `{"ratez":{"rubis1":50}}`},
		{"trailing data", `{} {"windows":1}`},
		{"malformed", `{"windows":`},
		{"wrong type", `{"windows":"three"}`},
		{"unknown application", `{"rates":{"nope":5}}`},
		{"unknown beside a known application", `{"rates":{"rubis1":50,"nope":5}}`},
		{"negative rate", `{"rates":{"rubis1":-50}}`},
		{"rates omitting an application", `{"rates":{}}`},
		{"negative windows", `{"windows":-3}`},
		{"windows over the cap", fmt.Sprintf(`{"windows":%d}`, maxWindowsPerPost+1)},
	}
	for _, tc := range cases {
		before := engineState(s)
		status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json", tc.body))
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, status)
		}
		if msg == "" {
			t.Errorf("%s: no structured error message", tc.name)
		}
		if after := engineState(s); after != before {
			t.Errorf("%s: a refused request moved the engine from %+v to %+v", tc.name, before, after)
		}
		if status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json", `{}`)); status != http.StatusOK {
			t.Errorf("%s: the next {} = %d (%s), want 200", tc.name, status, msg)
		}
	}
}

// stepState is what a refused POST /v1/window must leave as it was.
type stepState struct {
	window, booked int
	now            time.Duration
}

func engineState(s *server) stepState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stepState{window: s.Engine.WindowIndex(), booked: len(s.Engine.Result().Windows), now: s.Engine.Now()}
}

// FuzzWindowRequest posts arbitrary bodies to a 1-app daemon's
// POST /v1/window: every answer is a status the API documents, a refused
// request leaves the engine where it was, and the daemon still steps a
// following {}. Inputs asking for more than a handful of windows are
// skipped, so that one input cannot step hundreds of windows; the cap on
// the count is TestServeStrictBodyValidation's.
func FuzzWindowRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`, ``, `{"windows":3}`, `{"window":0}`, `{"rates":{"rubis1":55}}`,
		`{"rates":{"nope":5}}`, `{"rates":{"rubis1":-50}}`, `{"windows":-3}`,
		`{"windows":201}`, `{"rates":{"rubis1":5},"windows":2}`, `{"ratez":{}}`, `{} {}`,
		`{"rates":{}}`,
	} {
		f.Add([]byte(seed))
	}
	s, ts := newTestServer(f)
	allowed := map[int]bool{http.StatusOK: true, http.StatusBadRequest: true, http.StatusConflict: true,
		http.StatusRequestEntityTooLarge: true, http.StatusUnsupportedMediaType: true}
	f.Fuzz(func(t *testing.T, body []byte) {
		var asks struct{ Windows int }
		if json.Unmarshal(body, &asks) == nil && asks.Windows > 4 {
			t.Skip("steps too many windows for one input")
		}
		if engineState(s).window > 500 { // keep the run's memory bounded
			s.mu.Lock()
			err := s.rebuild(testRecipe)
			s.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
		before := engineState(s)
		status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json", string(body)))
		if !allowed[status] {
			t.Fatalf("%q: status %d (%s)", body, status, msg)
		}
		if after := engineState(s); status != http.StatusOK && after != before {
			t.Fatalf("%q: refused with %d (%s) but moved the engine from %+v to %+v", body, status, msg, before, after)
		}
		if status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json", `{}`)); status != http.StatusOK {
			t.Fatalf("after %q: {} = %d (%s), want 200", body, status, msg)
		}
	})
}

// FuzzFleetRequest posts arbitrary bodies to a 1-app daemon's
// POST /v1/fleet: every answer is a status the API documents, a refused
// request leaves the engine and its recipe where they were, and the daemon
// still steps a following {} window. Each input starts from the test
// recipe, so an accepted fleet does not carry over to the next.
func FuzzFleetRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`, ``, `{"apps":2}`, `{"apps":1,"hosts":3}`, `{"hosts":100000000}`,
		`{"apps":1,"hosts":100000000}`, `{"apps":5}`, `{"apps":-1}`, `{"hosts":-1}`,
		fmt.Sprintf(`{"apps":4,"hosts":%d}`, maxHosts), fmt.Sprintf(`{"hosts":%d}`, maxHosts+1),
		`{"appz":2}`, `{"apps":"two"}`, `{} {}`,
	} {
		f.Add([]byte(seed))
	}
	s, ts := newTestServer(f)
	allowed := map[int]bool{http.StatusOK: true, http.StatusBadRequest: true,
		http.StatusRequestEntityTooLarge: true, http.StatusUnsupportedMediaType: true}
	f.Fuzz(func(t *testing.T, body []byte) {
		s.mu.Lock()
		err := s.rebuild(testRecipe)
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json", `{}`)); status != http.StatusOK {
			t.Fatalf("first window: %d (%s)", status, msg)
		}
		before, recipe := engineState(s), s.Recipe
		status, msg, _ := do(t, post(t, ts.URL+"/v1/fleet", "application/json", string(body)))
		if !allowed[status] {
			t.Fatalf("%q: status %d (%s)", body, status, msg)
		}
		if status != http.StatusOK {
			if after := engineState(s); after != before || !reflect.DeepEqual(s.Recipe, recipe) {
				t.Fatalf("%q: refused with %d (%s) but moved the engine from %+v to %+v", body, status, msg, before, after)
			}
		}
		if status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json", `{}`)); status != http.StatusOK {
			t.Fatalf("after %q: {} = %d (%s), want 200", body, status, msg)
		}
	})
}

// TestServeRefusesOversizedRestore restores a checkpoint whose lab asks for
// more hosts than the daemon builds: 400, before anything is allocated,
// and the daemon keeps its recipe and its position.
func TestServeRefusesOversizedRestore(t *testing.T) {
	s, ts := newTestServer(t)
	for i := 0; i < 2; i++ {
		if status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json", "{}")); status != http.StatusOK {
			t.Fatalf("window %d: %d (%s)", i, status, msg)
		}
	}
	ck := t.TempDir() + "/ck.json"
	if status, msg, _ := do(t, post(t, ts.URL+"/v1/checkpoint", "application/json", fmt.Sprintf(`{"path":%q}`, ck))); status != http.StatusOK {
		t.Fatalf("checkpoint: %d (%s)", status, msg)
	}
	raw, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var lab map[string]any
	if err := json.Unmarshal(doc["lab"], &lab); err != nil {
		t.Fatalf("checkpoint lab key: %v", err)
	}
	lab["NumHosts"] = maxHosts + 1
	if doc["lab"], err = json.Marshal(lab); err != nil {
		t.Fatal(err)
	}
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ck, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before, recipe := engineState(s), s.Recipe
	status, msg, _ := do(t, post(t, ts.URL+"/v1/restore", "application/json", fmt.Sprintf(`{"path":%q}`, ck)))
	if status != http.StatusBadRequest || !strings.Contains(msg, "hosts must be in") {
		t.Fatalf("restore of a %d-host lab = %d %q, want 400 naming the host bound", maxHosts+1, status, msg)
	}
	if after := engineState(s); after != before || !reflect.DeepEqual(s.Recipe, recipe) {
		t.Errorf("a refused restore moved the daemon from %+v to %+v", before, after)
	}
}

func TestServeBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t)
	huge := `{"rates":{"` + strings.Repeat("x", maxBodyBytes) + `":1}}`
	status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json", huge))
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize POST = %d (%s), want 413", status, msg)
	}
}

func TestServeWindowSequencing(t *testing.T) {
	s, ts := newTestServer(t)
	// The correct sequence number is accepted...
	status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json", `{"window":0}`))
	if status != http.StatusOK {
		t.Fatalf(`{"window":0} = %d (%s), want 200`, status, msg)
	}
	// ...a duplicate of the consumed number conflicts...
	status, msg, _ = do(t, post(t, ts.URL+"/v1/window", "application/json", `{"window":0}`))
	if status != http.StatusConflict {
		t.Errorf("duplicate window = %d, want 409", status)
	}
	if !strings.Contains(msg, "out of sequence") {
		t.Errorf("409 error %q does not explain the conflict", msg)
	}
	// ...and so does skipping ahead.
	status, _, _ = do(t, post(t, ts.URL+"/v1/window", "application/json", `{"window":5}`))
	if status != http.StatusConflict {
		t.Errorf("future window = %d, want 409", status)
	}
	s.mu.Lock()
	if got := s.Engine.WindowIndex(); got != 1 {
		t.Errorf("engine advanced to window %d, want 1 (conflicts must not step)", got)
	}
	s.mu.Unlock()
}

func TestServeStateReportsSafetyPlanes(t *testing.T) {
	_, ts := newTestServer(t)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/state", nil)
	_, _, body := do(t, req)
	var st stateResp
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ExecPolicy != "fail-forward" {
		t.Errorf("exec_policy = %q, want fail-forward", st.ExecPolicy)
	}
	if st.Guard || st.Breaker != "" {
		t.Errorf("guard-off daemon reports guard=%v breaker=%q", st.Guard, st.Breaker)
	}
}

func TestServeGuardedStateAndBreaker(t *testing.T) {
	s := &server{}
	if err := s.rebuild(experiments.Recipe{
		Strategy:   "perf-pwr",
		ExecPolicy: testbed.RollbackOnFailure,
		Guard:      true,
		Lab:        experiments.LabOptions{NumApps: 1, Seed: 7},
	}); err != nil {
		t.Fatal(err)
	}
	st := s.stateLocked()
	if !st.Guard || st.Breaker != "closed" {
		t.Errorf("guarded daemon state guard=%v breaker=%q, want true/closed", st.Guard, st.Breaker)
	}
	if st.ExecPolicy != "rollback-on-failure" {
		t.Errorf("exec_policy = %q, want rollback-on-failure", st.ExecPolicy)
	}
}

// TestServeCheckpointRoundTripKeepsRecipe: a daemon restoring a checkpoint
// resumes at the same window with the same recipe, and serves the
// checkpoint's windows from /v1/decisions byte for byte.
func TestServeCheckpointRoundTripKeepsRecipe(t *testing.T) {
	s, ts := newTestServer(t)
	decisions := func() []byte {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/decisions?from=0", nil)
		status, _, body := do(t, req)
		if status != http.StatusOK {
			t.Fatalf("decisions: %d (%s)", status, body)
		}
		return body
	}
	if got := decisions(); string(got) != "[]\n" {
		t.Errorf("decisions before the first window = %q, want an empty list", got)
	}
	for i := 0; i < 3; i++ {
		if status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json", "{}")); status != http.StatusOK {
			t.Fatalf("window %d: %d (%s)", i, status, msg)
		}
	}
	ck := t.TempDir() + "/ck.json"
	body := fmt.Sprintf(`{"path":%q}`, ck)
	if status, msg, _ := do(t, post(t, ts.URL+"/v1/checkpoint", "application/json", body)); status != http.StatusOK {
		t.Fatalf("checkpoint: %d (%s)", status, msg)
	}
	want := decisions()
	status, _, out := do(t, post(t, ts.URL+"/v1/restore", "application/json", body))
	if status != http.StatusOK {
		t.Fatalf("restore: %d (%s)", status, out)
	}
	var st stateResp
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	if st.Window != 3 || st.ExecPolicy != "fail-forward" {
		t.Errorf("restored state window=%d exec=%q, want 3/fail-forward", st.Window, st.ExecPolicy)
	}
	s.mu.Lock()
	if got := s.Engine.WindowIndex(); got != 3 {
		t.Errorf("restored engine at window %d, want 3", got)
	}
	s.mu.Unlock()
	if got := decisions(); !bytes.Equal(got, want) {
		t.Errorf("restored decisions diverge:\ncheckpointing daemon: %s\nrestored daemon:      %s", want, got)
	}
}

// TestServeFailedRestoreLeavesDaemon pins that /v1/restore is all or
// nothing: a checkpoint the engine refuses — here one written under the
// retired v2 schema by a differently configured daemon — answers 400 and the
// running daemon keeps its recipe, its position, its decision log and its
// history.
func TestServeFailedRestoreLeavesDaemon(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		if status, msg, _ := do(t, post(t, ts.URL+"/v1/window", "application/json", "{}")); status != http.StatusOK {
			t.Fatalf("window %d: %d (%s)", i, status, msg)
		}
	}
	views := []string{"/v1/state", "/v1/decisions", "/v1/query", "/v1/query?series=utility,watts,actions"}
	get := func() [][]byte {
		out := make([][]byte, len(views))
		for i, path := range views {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
			status, _, body := do(t, req)
			if status != http.StatusOK {
				t.Fatalf("GET %s = %d (%s)", path, status, body)
			}
			out[i] = body
		}
		return out
	}
	before := get()

	other := &server{}
	if err := other.rebuild(experiments.Recipe{
		Strategy:   "perf-pwr",
		ExecPolicy: testbed.RollbackOnFailure,
		Guard:      true,
		Lab:        experiments.LabOptions{NumApps: 2, Seed: 9},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Engine.Step(); err != nil {
		t.Fatal(err)
	}
	ck := t.TempDir() + "/ck.json"
	if err := other.writeCheckpointLocked(ck); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	current := []byte(`"schema":"` + scenario.SnapshotSchema + `"`)
	if bytes.Count(raw, current) != 1 {
		t.Fatalf("checkpoint names its engine schema %d times, want once", bytes.Count(raw, current))
	}
	raw = bytes.Replace(raw, current, []byte(`"schema":"mistral.checkpoint/v2"`), 1)
	if err := os.WriteFile(ck, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	status, msg, _ := do(t, post(t, ts.URL+"/v1/restore", "application/json", fmt.Sprintf(`{"path":%q}`, ck)))
	if status != http.StatusBadRequest || !strings.Contains(msg, "unsupported checkpoint schema") {
		t.Fatalf("restore of a v2 checkpoint = %d %q, want 400 naming the schema", status, msg)
	}
	for i, body := range get() {
		if !bytes.Equal(before[i], body) {
			t.Errorf("GET %s changed across a refused restore:\nbefore: %s\nafter:  %s", views[i], before[i], body)
		}
	}
}

func TestServeNotReady(t *testing.T) {
	s := &server{}
	mux := http.NewServeMux()
	for path, h := range s.routes() {
		mux.Handle(path, h)
	}
	ts := httptest.NewServer(mux)
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/state", nil)
	status, msg, _ := do(t, req)
	if status != http.StatusServiceUnavailable {
		t.Errorf("engine-less state = %d, want 503", status)
	}
	if msg == "" {
		t.Error("503 without structured error")
	}
}
