package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/scenario"
)

// runHistoryMistral replays the first hour with an explicit telemetry
// history store attached and returns the result.
func runHistoryMistral(t *testing.T, faultRate float64, hist *tsdb.Store) *scenario.Result {
	t.Helper()
	rc := Recipe{Lab: LabOptions{NumApps: 2, Seed: 11}, Strategy: "mistral", FaultRate: faultRate, FaultSeed: 99}
	return shortReplay(t, rc, scenario.RunConfig{History: hist}).Engine.Result()
}

// historyVirtualJSON runs one replay and serializes the store's virtual
// series state. Wall-clock series (decide_wall_ms) are observational by
// construction and are stripped before any byte comparison.
func historyVirtualJSON(t *testing.T, faultRate float64) []byte {
	t.Helper()
	hist := tsdb.New(tsdb.Options{})
	runHistoryMistral(t, faultRate, hist)
	st := hist.State()
	kept := st.Series[:0:0]
	for _, s := range st.Series {
		if s.Class == "virtual" {
			kept = append(kept, s)
		}
	}
	st.Series = kept
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestHistoryDeterminism pins the telemetry history plane's core contract:
// every virtual series — rings, downsampled tiers, totals — is a pure
// function of the replay, so the serialized store must be byte-identical
// run-to-run, with and without a seeded fault schedule.
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
			first := historyVirtualJSON(t, tc.rate)
			if again := historyVirtualJSON(t, tc.rate); !bytes.Equal(first, again) {
				t.Errorf("history diverges run-to-run:\nfirst:  %s\nsecond: %s", first, again)
			}
			var st tsdb.State
			if err := json.Unmarshal(first, &st); err != nil {
				t.Fatal(err)
			}
			if st.LastWindow != 29 {
				t.Errorf("last window %d, want 29 (30-window replay)", st.LastWindow)
			}
			if len(st.Series) < 10 {
				t.Errorf("only %d virtual series folded, want the full canonical set", len(st.Series))
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
