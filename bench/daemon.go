package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// layout locates the checkout the benchmark runs in. Everything the
// benchmark writes lands under build (binaries, checkpoints) or out (trace
// and report files); both are inside the checkout and in .gitignore.
type layout struct {
	root, build, out string
}

const modulePath = "github.com/mistralcloud/mistral"

// findLayout walks up from the working directory to the repository's
// go.mod: `go run -C bench .` starts the program in bench/, a test in the
// package directory, a built binary wherever it was called.
func findLayout() (layout, error) {
	dir, err := os.Getwd()
	if err != nil {
		return layout{}, err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(raw), "module "+modulePath+"\n") {
			return layout{
				root:  dir,
				build: filepath.Join(dir, ".bench_build"),
				out:   filepath.Join(dir, "bench", "out"),
			}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return layout{}, fmt.Errorf("no go.mod of module %s above the working directory", modulePath)
		}
		dir = parent
	}
}

// buildServe compiles cmd/mistral-serve once per checkout; a second call
// finds the binary up to date. Build time is not part of any metric.
func buildServe(l layout) (string, error) {
	bin := filepath.Join(l.build, "mistral-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mistral-serve")
	cmd.Dir = l.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building mistral-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// janitor owns everything a run must not leave behind: daemon processes
// and the run's scratch directory. close is idempotent and is reached on
// success, on failure and on SIGINT/SIGTERM.
type janitor struct {
	mu      sync.Mutex
	daemons map[*daemon]struct{}
	dirs    []string
}

func (j *janitor) tempDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return "", err
	}
	j.mu.Lock()
	j.dirs = append(j.dirs, dir)
	j.mu.Unlock()
	return dir, nil
}

func (j *janitor) close() {
	j.mu.Lock()
	ds := make([]*daemon, 0, len(j.daemons))
	for d := range j.daemons {
		ds = append(ds, d)
	}
	dirs := j.dirs
	j.dirs = nil
	j.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
	for _, dir := range dirs {
		os.RemoveAll(dir)
	}
}

// daemon is one running mistral-serve process and the single keep-alive
// connection the closed-loop client talks to it over.
type daemon struct {
	j      *janitor
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr bytes.Buffer
	logged chan struct{} // closed when the stderr reader has drained
	errors int           // requests that failed or were refused
}

// spawn starts the binary and returns once GET /v1/state answers 200.
// The daemon binds an ephemeral port and names it on stderr.
func (j *janitor) spawn(bin string, args ...string) (*daemon, error) {
	d := &daemon{j: j, logged: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-workers", "1", "-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	j.mu.Lock()
	if j.daemons == nil {
		j.daemons = make(map[*daemon]struct{})
	}
	j.daemons[d] = struct{}{}
	j.mu.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.stderr.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "control API on "); ok {
				select {
				case addr <- strings.TrimSuffix(rest, "/v1/"):
				default:
				}
			}
		}
	}()
	select {
	case d.base = <-addr:
	case <-d.logged:
		d.kill()
		return nil, fmt.Errorf("mistral-serve exited before serving:\n%s", d.stderr.String())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("mistral-serve did not announce its address within 30 s")
	}
	d.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, err := d.get("/v1/state"); err == nil {
			d.errors = 0
			return d, nil
		} else if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("mistral-serve never became ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// terminate sends SIGTERM (the daemon drains, writes its -auto-checkpoint
// and exits) and waits for the process and its stderr reader to end.
func (d *daemon) terminate() error {
	return d.stop(syscall.SIGTERM)
}

// kill is terminate's unconditional sibling for cleanup paths.
func (d *daemon) kill() { _ = d.stop(syscall.SIGKILL) }

func (d *daemon) stop(sig syscall.Signal) error {
	d.j.mu.Lock()
	_, live := d.j.daemons[d]
	delete(d.j.daemons, d)
	d.j.mu.Unlock()
	if !live {
		return nil
	}
	_ = d.cmd.Process.Signal(sig)
	done := make(chan error, 1)
	go func() {
		<-d.logged // Wait closes the pipe; let the reader finish first
		done <- d.cmd.Wait()
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		err = fmt.Errorf("mistral-serve ignored %v for 20 s: %v", sig, <-done)
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	if sig == syscall.SIGTERM && err != nil {
		return fmt.Errorf("mistral-serve: %v\n%s", err, d.stderr.String())
	}
	return nil
}

func (d *daemon) do(req *http.Request) ([]byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		d.errors++
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		d.errors++
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		d.errors++
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (d *daemon) get(path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, d.base+path, nil)
	if err != nil {
		return nil, err
	}
	return d.do(req)
}

func (d *daemon) post(path string, body any) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return d.do(req)
}

// daemonVars is the slice of /debug/vars the benchmark reads: the Go
// runtime's memstats.
type daemonVars struct {
	Memstats struct {
		TotalAlloc, Mallocs, HeapAlloc, PauseTotalNs uint64
		NumGC                                        uint32
	} `json:"memstats"`
}

func (d *daemon) vars() (*daemonVars, error) {
	raw, err := d.get("/debug/vars")
	if err != nil {
		return nil, err
	}
	var v daemonVars
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return &v, nil
}

func (v *daemonVars) memSince(a *daemonVars) memDelta {
	return memDelta{
		allocBytes: v.Memstats.TotalAlloc - a.Memstats.TotalAlloc,
		mallocs:    v.Memstats.Mallocs - a.Memstats.Mallocs,
		gcPauseNS:  v.Memstats.PauseTotalNs - a.Memstats.PauseTotalNs,
		gcCycles:   v.Memstats.NumGC - a.Memstats.NumGC,
	}
}

func (m memDelta) plus(o memDelta) memDelta {
	return memDelta{
		allocBytes: m.allocBytes + o.allocBytes,
		mallocs:    m.mallocs + o.mallocs,
		gcPauseNS:  m.gcPauseNS + o.gcPauseNS,
		gcCycles:   m.gcCycles + o.gcCycles,
	}
}

// checkpointEvery is the period, in windows, of POST /v1/checkpoint.
const checkpointEvery = 10

// pollPaths are the reads the client makes after every window; %d is the
// window index ten back, so /v1/decisions returns a bounded tail.
var pollPaths = []struct{ span, path string }{
	{"serve.get_state", "/v1/state"},
	{"serve.get_ops", "/ops"},
	{"serve.get_metrics", "/metrics"},
	{"serve.get_query", "/v1/query?series=utility,watts,expansions&k=32"},
	{"serve.get_decisions", "/v1/decisions?from=%d"},
}

// daemonReplay is one repetition against the daemon. Beyond the common
// replay observations it keeps the step round trip and the checkpoint of
// every iteration apart, so each can be normalised by the iteration's probe.
type daemonReplay struct {
	replay
	post, ckpt []float64 // raw wall per iteration (ckpt 0 where none ran)
	recoverNS  float64   // raw wall from SIGTERM to the resumed daemon's first 200; 0 if never killed
	httpErrors int
}

// runDaemonReplay spawns the daemon and drives windows rates[0:] through
// it in a closed loop. With killAt > 0 the daemon is sent SIGTERM before
// that window and restarted from the checkpoint it wrote on the way out.
// atEnd, when set, gets the live daemon after the last window.
func runDaemonReplay(j *janitor, bin, dir string, spec workloadSpec, rates []map[string]float64, killAt int, tr *tracer, p *speedProbe, atEnd func(*daemon) error) (*daemonReplay, error) {
	r := &daemonReplay{}
	auto := filepath.Join(dir, "auto.ckpt")
	periodic := filepath.Join(dir, "periodic.ckpt")
	var d *daemon
	start := func(args ...string) func() error {
		return func() error {
			next, err := j.spawn(bin, append([]string{"-auto-checkpoint", auto}, args...)...)
			if err == nil {
				d = next
			}
			return err
		}
	}
	sid := tr.begin("serve.spawn", 0, -1)
	err := r.ops.time(p, start())
	tr.end(sid)
	if err != nil {
		return nil, err
	}
	defer func() { d.kill() }()

	timed := func(name string, fn func() error) (float64, error) {
		t0 := time.Now()
		var err error
		tr.child(name, func() { err = fn() })
		return float64(time.Since(t0).Nanoseconds()), err
	}
	dg := newDigester()
	var ledger, cum float64
	var mark *daemonVars // memstats at the start of the current process's measured stretch
	for i, rt := range rates {
		if i == spec.warm {
			if mark, err = d.vars(); err != nil {
				return nil, err
			}
		}
		if killAt > 0 && i == killAt {
			end, err := d.vars()
			if err != nil {
				return nil, err
			}
			r.mem = r.mem.plus(end.memSince(mark))
			r.httpErrors += d.errors
			sid := tr.begin("serve.recover", 0, i)
			t0 := time.Now()
			if err = d.terminate(); err == nil {
				err = start("-resume", auto)()
			}
			r.recoverNS = float64(time.Since(t0).Nanoseconds())
			tr.end(sid)
			if err != nil {
				return nil, fmt.Errorf("kill/resume before window %d: %w", i, err)
			}
			if mark, err = d.vars(); err != nil {
				return nil, err
			}
		}

		tr.beginWindow(i)
		var resp []struct {
			Window      int                `json:"window"`
			Rates       map[string]float64 `json:"rates"`
			Utility     float64            `json:"utility"`
			CumUtility  float64            `json:"cum_utility"`
			Actions     int                `json:"actions"`
			ActiveHosts int                `json:"active_hosts"`
			ProvErr     string             `json:"prov_err"`
		}
		postNS, err := timed("serve.post_window", func() error {
			raw, err := d.post("/v1/window", map[string]any{"rates": rt, "window": i})
			if err != nil {
				return err
			}
			return json.Unmarshal(raw, &resp)
		})
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", i, err)
		}
		if len(resp) != 1 || resp[0].Window != i {
			return nil, fmt.Errorf("window %d: daemon answered %+v", i, resp)
		}
		var pollNS float64
		for _, pp := range pollPaths {
			path := pp.path
			if strings.Contains(path, "%d") {
				path = fmt.Sprintf(path, max(0, i-10))
			}
			ns, err := timed(pp.span, func() error { _, err := d.get(path); return err })
			if err != nil {
				return nil, fmt.Errorf("window %d: %w", i, err)
			}
			pollNS += ns
		}
		var ckptNS float64
		if (i+1)%checkpointEvery == 0 {
			if ckptNS, err = timed("serve.post_checkpoint", func() error {
				_, err := d.post("/v1/checkpoint", map[string]string{"path": periodic})
				return err
			}); err != nil {
				return nil, fmt.Errorf("checkpoint after window %d: %w", i, err)
			}
		}
		tr.endWindow()
		r.post = append(r.post, postNS)
		r.ckpt = append(r.ckpt, ckptNS)
		r.ops.add(p, postNS+pollNS+ckptNS)

		w := resp[0]
		if w.ProvErr != "" {
			r.failed = append(r.failed, fmt.Sprintf("window %d: provenance: %s", i, w.ProvErr))
		}
		dg.window(i, w.Rates, w.Actions, w.Utility, w.ActiveHosts)
		ledger += w.Utility
		cum = w.CumUtility
	}
	r.digest = dg.sum()
	r.utility = cum
	if ledger != cum {
		r.failed = append(r.failed, fmt.Sprintf("utility ledger sums to %v, daemon reports %v", ledger, cum))
	}
	if mark != nil {
		end, err := d.vars()
		if err != nil {
			return nil, err
		}
		r.mem = r.mem.plus(end.memSince(mark))
	}
	// Twice: what a sync.Pool held survives the first collection.
	for i := 0; i < 2; i++ {
		if _, err := d.get("/debug/pprof/heap?gc=1"); err != nil {
			return nil, err
		}
	}
	live, err := d.vars()
	if err != nil {
		return nil, err
	}
	r.liveHeap = live.Memstats.HeapAlloc
	if atEnd != nil {
		if err := atEnd(d); err != nil {
			return nil, err
		}
	}
	r.httpErrors += d.errors
	if r.httpErrors > 0 {
		r.failed = append(r.failed, fmt.Sprintf("%d HTTP requests failed or were refused", r.httpErrors))
	}
	if err := d.terminate(); err != nil {
		return nil, err
	}
	return r, nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
