package scenario_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
)

// TestConcurrentScrapesWhileStepping hammers every read surface — the
// Prometheus exposition writer, the /ops document, and the /v1/query trend
// API — from parallel goroutines while the engine steps windows, and
// asserts no scrape ever observes a torn snapshot: every body parses as
// schema-valid JSON and the window counters only move forward. Under
// `go test -race` this also proves the locking across registry, ops state,
// and tsdb store.
func TestConcurrentScrapesWhileStepping(t *testing.T) {
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
	dec, err := strategy.NewMistral(eval, strategy.MistralConfig{
		HostGroups:         lab.HostGroups(),
		MonitoringInterval: lab.Util.MonitoringInterval,
	})
	if err != nil {
		t.Fatal(err)
	}
	ob := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Ops:     obs.NewOpsState(),
		History: tsdb.New(tsdb.Options{}),
	}
	e, err := scenario.NewEngine(tb, dec, scenario.RunConfig{
		Traces:   lab.Traces,
		Duration: 60 * lab.Util.MonitoringInterval,
		Interval: lab.Util.MonitoringInterval,
		Utility:  lab.Util,
		Obs:      ob,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(h http.Handler, target string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		return rec.Code, rec.Body.Bytes()
	}

	// Exposition hammer: WritePrometheus walks the live registry.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ob.Metrics.WritePrometheus(io.Discard); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()

	// /ops hammer: every body must be a schema-valid snapshot and the
	// window cursor must never run backwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastWin := -2
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, body := scrape(ob.Ops.Handler(), "/ops")
			if code != http.StatusOK {
				t.Errorf("/ops status %d", code)
				return
			}
			var snap obs.OpsSnapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Errorf("/ops body torn: %v\n%s", err, body)
				return
			}
			if snap.Schema != obs.OpsSchema {
				t.Errorf("/ops schema %q", snap.Schema)
				return
			}
			if snap.Window < lastWin {
				t.Errorf("/ops window ran backwards: %d after %d", snap.Window, lastWin)
				return
			}
			lastWin = snap.Window
		}
	}()

	// /v1/query hammer: the catalog must stay schema-valid with a
	// monotone last-window, and a live series range query must parse.
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastWin := -2
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, body := scrape(ob.History.Handler(), "/v1/query")
			if code != http.StatusOK {
				t.Errorf("/v1/query status %d", code)
				return
			}
			var list tsdb.ListResponse
			if err := json.Unmarshal(body, &list); err != nil {
				t.Errorf("/v1/query catalog torn: %v\n%s", err, body)
				return
			}
			if list.Schema != tsdb.Schema {
				t.Errorf("/v1/query schema %q", list.Schema)
				return
			}
			if list.LastWindow < lastWin {
				t.Errorf("/v1/query last_window ran backwards: %d after %d", list.LastWindow, lastWin)
				return
			}
			lastWin = list.LastWindow
			// Unknown-series 404s are expected only before the first
			// window lands.
			code, body = scrape(ob.History.Handler(), "/v1/query?series=utility,watts&k=8")
			switch code {
			case http.StatusOK:
				var resp tsdb.QueryResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Errorf("/v1/query range torn: %v\n%s", err, body)
					return
				}
			case http.StatusNotFound:
				if lastWin >= 0 {
					t.Errorf("series missing after window %d", lastWin)
					return
				}
			default:
				t.Errorf("/v1/query range status %d", code)
				return
			}
		}
	}()

	for i := 0; i < 60 && !t.Failed(); i++ {
		if _, err := e.Step(); err != nil {
			t.Errorf("step %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()

	if got := ob.History.LastWindow(); !t.Failed() && got != 59 {
		t.Errorf("history last window %d, want 59", got)
	}
}
