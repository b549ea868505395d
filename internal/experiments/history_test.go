package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// runHistoryMistral replays the first hour with an observer that carries
// only a telemetry history store — no metrics registry — and returns the
// result. A nil store runs without an observer.
func runHistoryMistral(t *testing.T, faultRate float64, hist *tsdb.Store) *scenario.Result {
	t.Helper()
	rc := Recipe{Lab: LabOptions{NumApps: 2, Seed: 11}, Strategy: "mistral", FaultRate: faultRate, FaultSeed: 99}
	var run scenario.RunConfig
	if hist != nil {
		run.Obs = &obs.Observer{History: hist}
	}
	return shortReplay(t, rc, run).Engine.Result()
}

// historyJSON runs one replay and serializes a query over every series the
// store holds.
func historyJSON(t *testing.T, faultRate float64) []byte {
	t.Helper()
	hist := tsdb.New(tsdb.Options{})
	runHistoryMistral(t, faultRate, hist)
	if got := hist.LastWindow(); got != 29 {
		t.Errorf("last window %d, want 29 (30-window replay)", got)
	}
	if got := len(hist.Names()); got != 13 {
		t.Errorf("%d series folded, want the 13 of the canonical set", got)
	}
	resp, err := hist.Query(hist.Names(), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestHistoryDeterminism pins the telemetry history plane's core contract:
// every series is a pure function of the replay, so the same query must
// answer byte-identically run-to-run, with and without a seeded fault
// schedule.
func TestHistoryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"fault=0", 0},
		{"fault=0.3", 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := historyJSON(t, tc.rate)
			if again := historyJSON(t, tc.rate); !bytes.Equal(first, again) {
				t.Errorf("history diverges run-to-run:\nfirst:  %s\nsecond: %s", first, again)
			}
		})
	}
}

// TestHistoryObserverDoesNotPerturbReplay pins the pure-observer contract:
// attaching a history store must leave the replay result byte-identical to
// the same run without one.
func TestHistoryObserverDoesNotPerturbReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	bare := runHistoryMistral(t, 0.15, nil)
	hist := tsdb.New(tsdb.Options{})
	observed := runHistoryMistral(t, 0.15, hist)
	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("history store perturbed the replay:\nbare:     %+v\nobserved: %+v", bare, observed)
	}
	if got := hist.LastWindow(); got != 29 {
		t.Errorf("observed run folded through window %d, want 29", got)
	}
}

// TestExpansionsSeriesWithoutRegistry: the expansions series counts the
// searches each window ran even when the strategy shares no metrics
// registry with the engine — here the observer carries a history store and
// nothing else.
func TestExpansionsSeriesWithoutRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	hist := tsdb.New(tsdb.Options{})
	res := runHistoryMistral(t, 0, hist)
	var logged, series float64
	for _, w := range res.Windows {
		logged += float64(w.Expansions)
	}
	for _, p := range hist.Range("expansions", 0, -1) {
		series += p.Value
	}
	if series <= 0 || series != logged {
		t.Errorf("expansions series sums to %v, window logs to %v; want equal and > 0", series, logged)
	}
}

// TestExpansionsMatchRegistry: where the strategy does share the engine's
// registry, each window's Expansions equals that window's growth of
// search_expansions_total — over the 3rd-level controller of a two-zone
// lab under faults, rollback and the guard, and over Perf-Cost.
func TestExpansionsMatchRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	for _, rc := range []Recipe{
		{Lab: LabOptions{NumApps: 2, Seed: 42, Zones: 2}, Strategy: "mistral", FaultRate: 0.3, FaultSeed: 5,
			ExecPolicy: testbed.RollbackOnFailure, Guard: true},
		{Lab: LabOptions{NumApps: 2, Seed: 42}, Strategy: "perf-cost"},
	} {
		t.Run(rc.Strategy, func(t *testing.T) {
			ob := &obs.Observer{Metrics: obs.NewRegistry()}
			obs.SetDefault(ob)
			defer obs.SetDefault(nil)
			rc.Mistral = PaperRecipe(0).Mistral
			rp, err := rc.Build(scenario.RunConfig{Duration: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			var prev int64
			for !rp.Engine.Done() {
				sr, err := rp.Engine.Step()
				if err != nil {
					t.Fatal(err)
				}
				now := ob.Metrics.CounterValue("search_expansions_total")
				if got := int64(sr.Window.Expansions); got != now-prev {
					t.Errorf("window %d: Expansions %d, registry grew by %d", sr.Index, got, now-prev)
				}
				prev = now
			}
			if prev == 0 {
				t.Error("no search ran")
			}
		})
	}
}
