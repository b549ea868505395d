// Command mistral-serve runs the Mistral controller as a long-lived HTTP
// daemon instead of a batch replay: workload samples stream in over JSON,
// decisions and provenance stream out, the fleet can grow or shrink at
// runtime, and the whole engine checkpoints to disk so the process can
// restart mid-trace without losing calibration.
//
// The control API rides the same listener as the observability plane —
// /metrics (Prometheus), /ops (poll with mistral-explain -addr), and /debug/pprof —
// so one address serves both operators and automation:
//
//	POST /v1/window      {"rates":{"rubis1":55}} | {"windows":3} | {}
//	GET  /v1/state
//	GET  /v1/decisions?from=N
//	GET  /v1/provenance
//	POST /v1/fleet       {"apps":3,"hosts":6}
//	POST /v1/apps/admit    POST /v1/apps/remove
//	POST /v1/hosts/admit   POST /v1/hosts/remove
//	POST /v1/checkpoint  {"path":"ck.json"}
//	POST /v1/restore     {"path":"ck.json"}
//
// Admitting or removing capacity rebuilds the lab (catalog, models, cost
// tables) declaratively and resets control state — calibration is
// per-fleet. Checkpoint/restore, by contrast, preserves every byte of
// control state: a daemon restarted with -resume (or sent /v1/restore)
// continues the decision stream exactly where the checkpoint left it.
//
// Usage:
//
//	mistral-serve [-addr localhost:7070]
//	              [-strategy mistral|naive|perf-pwr|perf-cost|pwr-cost]
//	              [-apps N] [-hosts N] [-seed N] [-zones N]
//	              [-dvfs] [-fault-rate P] [-fault-seed N]
//	              [-exec-policy fail-forward|rollback] [-guard]
//	              [-log-level LEVEL] [-resume FILE] [-auto-checkpoint FILE]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"github.com/mistralcloud/mistral/internal/checkpoint"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mistral-serve:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var rc experiments.Recipe
	rc.RegisterFlags(flag.CommandLine)
	var (
		addr       = flag.String("addr", "localhost:7070", "HTTP listen address for the control API, /metrics, /ops, and /debug/pprof")
		numHosts   = flag.Int("hosts", 0, "number of application hosts (0 = 2 per app)")
		logLevel   = flag.String("log-level", "", "structured logging to stderr: debug, info, warn, error")
		resumePath = flag.String("resume", "", "restore the engine from a checkpoint FILE at startup; the checkpoint's recorded environment overrides the corresponding flags")
		autoCkPath = flag.String("auto-checkpoint", "", "on SIGTERM/SIGINT, drain the in-flight window and write a final checkpoint to FILE before exiting")
	)
	flag.Int("workers", 0, "ignored; accepted only because bench/ passes it")
	flag.Parse()
	rc.Lab.NumHosts = *numHosts
	s := &server{}

	// The control API mounts next to /metrics//ops on one listener; the
	// handlers hold the server pointer, so they serve correctly once the
	// engine below is in place (requests beat it only during startup and
	// get a clean 503).
	ob, closeObs, err := obs.CLI{
		LogLevel:  *logLevel,
		PprofAddr: *addr,
		Handlers:  s.routes(),
	}.Build()
	if err != nil {
		return err
	}
	obs.SetDefault(ob)
	defer func() {
		if cerr := closeObs(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	s.ob = ob

	if *resumePath != "" {
		ck, err := checkpoint.Read(*resumePath)
		if err != nil {
			return err
		}
		if err := s.restoreFrom(ck); err != nil {
			return err
		}
	} else if err := s.rebuild(rc); err != nil {
		return err
	}

	s.mu.Lock()
	fmt.Fprintf(os.Stderr, "mistral-serve: %s strategy, %d apps on %d hosts, interval %s, window %d — control API on http://%s/v1/\n",
		s.Engine.Result().Strategy, s.Lab.Opts.NumApps, s.Lab.Opts.NumHosts,
		s.Engine.Interval(), s.Engine.WindowIndex(), ob.HTTPAddr)
	s.mu.Unlock()

	// Serve until interrupted; the obs closer shuts the listener down.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
	fmt.Fprintln(os.Stderr, "mistral-serve: draining")
	// Acquiring the engine lock waits for any in-flight window batch to
	// finish — a SIGTERM mid-window never truncates a decision. The lock is
	// deliberately held through exit so no request admitted during listener
	// shutdown can advance the engine past the final checkpoint.
	s.mu.Lock()
	if *autoCkPath != "" {
		if err := s.writeCheckpointLocked(*autoCkPath); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("auto-checkpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "mistral-serve: checkpoint written to %s (window %d)\n", *autoCkPath, s.Engine.WindowIndex())
	}
	fmt.Fprintln(os.Stderr, "mistral-serve: shutting down")
	return nil
}

// server is the daemon: one environment, which carries the recipe it was
// built from, all guarded by a single mutex (control decisions are
// inherently serial — each window's decision depends on the last).
type server struct {
	mu sync.Mutex

	ob *obs.Observer

	env
}

// env is one environment built from a recipe, plus the in-memory sink its
// provenance recorder writes to. Fleet changes and restores build a new one
// beside the live one and swap it in only once it stands, so a rejected
// request leaves the daemon as it was.
type env struct {
	*experiments.Replay
	provBuf *lockedBuffer
}

// lockedBuffer is the in-memory provenance sink: the recorder appends
// JSONL under the engine lock, GET /v1/provenance snapshots it under its
// own.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]byte, b.buf.Len())
	copy(out, b.buf.Bytes())
	return out
}

// maxHosts bounds a fleet's application hosts. NewLab allocates for every
// host before anything else can refuse a size, so the bound is checked
// first; at the bound, 4 applications still step a window in tens of
// milliseconds.
const maxHosts = 64

// build constructs a fresh environment from a recipe without touching the
// live one. Every fleet change, restore and -resume passes through it, so
// it refuses a fleet out of bounds before allocating anything.
func (s *server) build(rc experiments.Recipe) (env, error) {
	if n := rc.Lab.NumApps; n < 1 || n > 4 {
		return env{}, badRequest("apps must be in 1..4 (got %d)", n)
	}
	if n := rc.Lab.NumHosts; n < 0 || n > maxHosts {
		return env{}, badRequest("hosts must be in 0..%d, 0 for 2 per app (got %d)", maxHosts, n)
	}
	provBuf := &lockedBuffer{}
	rp, err := rc.Build(scenario.RunConfig{
		Obs:        s.ob,
		Provenance: provenance.NewRecorder(provBuf),
		// The daemon's flight recorder always carries per-step outcomes:
		// a skipped or rolled-back step's cause is an operator question,
		// and the daemon has no byte-compat goldens to preserve.
		StepProvenance: true,
	})
	if err != nil {
		return env{}, err
	}
	return env{Replay: rp, provBuf: provBuf}, nil
}

// rebuild replaces the live environment with a fresh one built from rc,
// dropping all prior control state. Callers hold s.mu or are
// single-threaded startup.
func (s *server) rebuild(rc experiments.Recipe) error {
	e, err := s.build(rc)
	if err != nil {
		return err
	}
	s.env = e
	return nil
}

// restoreFrom builds the environment a checkpoint records, restores the
// engine state into it, and only then adopts it: a checkpoint that fails
// to restore leaves the live environment in place.
func (s *server) restoreFrom(ck *checkpoint.File) error {
	rc, err := ck.Recipe()
	if err != nil {
		return err
	}
	e, err := s.build(rc)
	if err != nil {
		return err
	}
	if err := e.Engine.Restore(ck.Scenario); err != nil {
		return err
	}
	s.env = e
	return nil
}

// windowResp is one completed window in API form.
type windowResp struct {
	Window         int                `json:"window"`
	TimeSec        float64            `json:"time_sec"`
	Rates          map[string]float64 `json:"rates,omitempty"`
	RTSec          map[string]float64 `json:"rt_sec,omitempty"`
	Watts          float64            `json:"watts"`
	Utility        float64            `json:"utility"`
	CumUtility     float64            `json:"cum_utility"`
	Actions        int                `json:"actions"`
	Invoked        bool               `json:"invoked"`
	SearchTimeSec  float64            `json:"search_time_sec,omitempty"`
	ActiveHosts    int                `json:"active_hosts"`
	Degraded       bool               `json:"degraded,omitempty"`
	DegradedReason string             `json:"degraded_reason,omitempty"`
	// ProvErr is the provenance recorder's sticky first write error, on the
	// POST /v1/window answer only.
	ProvErr string `json:"prov_err,omitempty"`
}

// toResp renders completed window k.
func toResp(k int, w *scenario.WindowLog) windowResp {
	return windowResp{
		Window:         k,
		TimeSec:        w.Time.Seconds(),
		Rates:          w.Rates,
		RTSec:          w.RTSec,
		Watts:          w.Watts,
		Utility:        w.Utility,
		CumUtility:     w.CumUtility,
		Actions:        w.Actions,
		Invoked:        w.Invoked,
		SearchTimeSec:  w.SearchTime.Seconds(),
		ActiveHosts:    w.ActiveHosts,
		Degraded:       w.Degraded,
		DegradedReason: w.DegradedReason,
	}
}

// stateResp is GET /v1/state.
type stateResp struct {
	Strategy    string   `json:"strategy"`
	Apps        []string `json:"apps"`
	Hosts       int      `json:"hosts"`
	Window      int      `json:"window"`
	NowSec      float64  `json:"now_sec"`
	IntervalSec float64  `json:"interval_sec"`
	CumUtility  float64  `json:"cum_utility"`
	FaultRate   float64  `json:"fault_rate,omitempty"`
	ExecPolicy  string   `json:"exec_policy"`
	Guard       bool     `json:"guard,omitempty"`
	Breaker     string   `json:"breaker,omitempty"`
}

func (s *server) routes() map[string]http.Handler {
	return map[string]http.Handler{
		"/v1/state":        s.handler(http.MethodGet, s.handleState),
		"/v1/window":       s.handler(http.MethodPost, s.handleWindow),
		"/v1/decisions":    s.handler(http.MethodGet, s.handleDecisions),
		"/v1/provenance":   http.HandlerFunc(s.handleProvenance),
		"/v1/fleet":        s.handler(http.MethodPost, s.handleFleet),
		"/v1/apps/admit":   s.handler(http.MethodPost, s.deltaHandler(1, 0)),
		"/v1/apps/remove":  s.handler(http.MethodPost, s.deltaHandler(-1, 0)),
		"/v1/hosts/admit":  s.handler(http.MethodPost, s.deltaHandler(0, 1)),
		"/v1/hosts/remove": s.handler(http.MethodPost, s.deltaHandler(0, -1)),
		"/v1/checkpoint":   s.handler(http.MethodPost, s.handleCheckpoint),
		"/v1/restore":      s.handler(http.MethodPost, s.handleRestore),
	}
}

// apiError carries an HTTP status through the handler plumbing.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// maxBodyBytes bounds every control-API request body. The largest
// legitimate request is a rates map over four applications — a megabyte is
// orders of magnitude of headroom, and everything past it is abuse.
const maxBodyBytes = 1 << 20

// maxWindowsPerPost bounds {"windows":N}: one request steps at most a day of
// the paper's replay (195 two-minute windows), and holds the engine lock
// while it does.
const maxWindowsPerPost = 200

// decodeJSON strictly decodes a bounded request body: unknown fields and
// trailing data are errors (they always indicate a malformed client, and
// silently ignoring them turns typos into no-ops), while an entirely empty
// body means "all defaults" and stays legal. The body is already wrapped
// in a MaxBytesReader by the handler plumbing.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return badRequest("bad request body: %v", err)
	}
	if dec.More() {
		return badRequest("bad request body: trailing data after JSON value")
	}
	return nil
}

// handler wraps an endpoint with method and media-type enforcement, the
// engine lock, a request-body cap, JSON encoding, and uniform structured
// error reporting.
func (s *server) handler(method string, fn func(r *http.Request) (any, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeErr := func(status int, msg string) {
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": msg})
		}
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeErr(http.StatusMethodNotAllowed, method+" required")
			return
		}
		if method == http.MethodPost {
			// Accept application/json (with any parameters) or an absent
			// Content-Type; anything else is a client speaking the wrong
			// protocol.
			if ct := r.Header.Get("Content-Type"); ct != "" {
				if mt := strings.TrimSpace(strings.SplitN(ct, ";", 2)[0]); !strings.EqualFold(mt, "application/json") {
					writeErr(http.StatusUnsupportedMediaType, fmt.Sprintf("unsupported content type %q (want application/json)", mt))
					return
				}
			}
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.Replay == nil {
			writeErr(http.StatusServiceUnavailable, "engine not ready")
			return
		}
		out, err := fn(r)
		if err != nil {
			status := http.StatusInternalServerError
			if ae, ok := err.(*apiError); ok {
				status = ae.status
			}
			writeErr(status, err.Error())
			return
		}
		json.NewEncoder(w).Encode(out)
	})
}

func (s *server) stateLocked() stateResp {
	st := stateResp{
		Strategy:    s.Engine.Result().Strategy,
		Apps:        append([]string(nil), s.Lab.AppNames...),
		Hosts:       s.Lab.Opts.NumHosts,
		Window:      s.Engine.WindowIndex(),
		NowSec:      s.Engine.Now().Seconds(),
		IntervalSec: s.Engine.Interval().Seconds(),
		CumUtility:  s.Engine.Result().CumUtility,
		FaultRate:   s.Recipe.FaultRate,
		ExecPolicy:  s.Recipe.ExecPolicy.String(),
	}
	if s.Recipe.Guard {
		st.Guard = true
		st.Breaker = s.Guard.Breaker().String()
	}
	return st
}

func (s *server) handleState(r *http.Request) (any, error) {
	return s.stateLocked(), nil
}

// handleWindow advances the engine: {"rates":{...}} runs one window under
// the given rates, {"windows":N} runs N windows off the configured traces,
// and {} runs one trace window.
func (s *server) handleWindow(r *http.Request) (any, error) {
	var req struct {
		Rates   map[string]float64 `json:"rates"`
		Windows int                `json:"windows"`
		Window  *int               `json:"window"`
	}
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Windows < 0 || req.Windows > maxWindowsPerPost {
		return nil, badRequest("windows must be between 0 and %d, got %d", maxWindowsPerPost, req.Windows)
	}
	if req.Rates != nil && req.Windows > 1 {
		return nil, badRequest("rates and windows are mutually exclusive")
	}
	// An optional sequence number makes the step idempotent against retries:
	// a client that resends after a lost response (or races another client)
	// gets a conflict instead of silently double-advancing the replay.
	if req.Window != nil && *req.Window != s.Engine.WindowIndex() {
		return nil, &apiError{status: http.StatusConflict,
			msg: fmt.Sprintf("window %d out of sequence (next window is %d)", *req.Window, s.Engine.WindowIndex())}
	}
	n := req.Windows
	if n <= 0 {
		n = 1
	}
	out := make([]windowResp, 0, n)
	for i := 0; i < n; i++ {
		var sr scenario.StepResult
		var err error
		if req.Rates != nil {
			sr, err = s.Engine.StepRates(req.Rates)
		} else {
			sr, err = s.Engine.Step()
		}
		if err != nil {
			return nil, badRequest("window %d: %v", sr.Index, err)
		}
		resp := toResp(sr.Index, &sr.Window)
		if sr.ProvErr != nil {
			resp.ProvErr = sr.ProvErr.Error()
		}
		out = append(out, resp)
	}
	return out, nil
}

// handleDecisions serves completed windows from=N onwards, read from the
// engine's result, so a restored daemon serves the checkpoint's windows too.
func (s *server) handleDecisions(r *http.Request) (any, error) {
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return nil, badRequest("bad from=%q", v)
		}
		from = n
	}
	out := make([]windowResp, 0, max(0, s.Engine.WindowIndex()-from))
	for k := from; k < s.Engine.WindowIndex(); k++ {
		w := s.Engine.Window(k)
		out = append(out, toResp(k, &w))
	}
	return out, nil
}

func (s *server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusMethodNotAllowed)
		json.NewEncoder(w).Encode(map[string]string{"error": "GET required"})
		return
	}
	s.mu.Lock()
	buf := s.provBuf
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if buf != nil {
		w.Write(buf.Bytes())
	}
}

// handleFleet declaratively resizes the fleet: {"apps":N,"hosts":M}.
// Rebuilding resets control state — calibration is per-fleet.
func (s *server) handleFleet(r *http.Request) (any, error) {
	var req struct {
		Apps  int `json:"apps"`
		Hosts int `json:"hosts"`
	}
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Apps == 0 {
		req.Apps = s.Lab.Opts.NumApps
	}
	return s.resize(req.Apps, req.Hosts)
}

// deltaHandler returns an endpoint that admits or removes one app or host.
func (s *server) deltaHandler(dApps, dHosts int) func(r *http.Request) (any, error) {
	return func(r *http.Request) (any, error) {
		apps := s.Lab.Opts.NumApps + dApps
		hosts := s.Lab.Opts.NumHosts
		if dHosts != 0 {
			hosts += dHosts
		} else if dApps != 0 {
			// Growing the fleet by an app brings its host pair along, the
			// paper's 2-hosts-per-app sizing; removal gives them back.
			hosts += 2 * dApps
		}
		return s.resize(apps, hosts)
	}
}

func (s *server) resize(apps, hosts int) (any, error) {
	rc := s.Recipe
	rc.Lab.NumApps = apps
	rc.Lab.NumHosts = hosts
	if err := s.rebuild(rc); err != nil {
		return nil, badRequest("fleet rejected: %v", err)
	}
	return s.stateLocked(), nil
}

// writeCheckpointLocked snapshots the engine and persists the full
// checkpoint envelope; callers hold s.mu.
func (s *server) writeCheckpointLocked(path string) error {
	snap, err := s.Engine.Snapshot()
	if err != nil {
		return err
	}
	return checkpoint.Write(path, checkpoint.New(s.Recipe, snap))
}

func (s *server) handleCheckpoint(r *http.Request) (any, error) {
	var req struct {
		Path string `json:"path"`
	}
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Path == "" {
		return nil, badRequest("path required")
	}
	if err := s.writeCheckpointLocked(req.Path); err != nil {
		return nil, err
	}
	return map[string]any{"path": req.Path, "window": s.Engine.WindowIndex(), "time_sec": s.Engine.Now().Seconds()}, nil
}

func (s *server) handleRestore(r *http.Request) (any, error) {
	var req struct {
		Path string `json:"path"`
	}
	if err := decodeJSON(r, &req); err != nil {
		return nil, err
	}
	if req.Path == "" {
		return nil, badRequest("path required")
	}
	ck, err := checkpoint.Read(req.Path)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if err := s.restoreFrom(ck); err != nil {
		return nil, badRequest("restore failed: %v", err)
	}
	return s.stateLocked(), nil
}
