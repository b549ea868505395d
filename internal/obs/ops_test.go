package obs

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestOpsStateFold feeds windows through the state and checks the
// aggregates, the slowest-window leaderboard ordering and cap, and the
// snapshot's copy semantics.
func TestOpsStateFold(t *testing.T) {
	s := NewOpsState()
	s.BeginRun("Mistral", 2*time.Minute)
	for i := 0; i < DefaultSlowWindows+5; i++ {
		s.RecordWindow(OpsWindow{
			Window:          i,
			TimeSec:         float64(i) * 120,
			CumUtility:      float64(i),
			Degraded:        i == 3,
			WallMS:          float64(100 - i), // strictly decreasing: window 0 slowest
			DegradedWindows: btoi(i >= 3),
			DecideErrors:    btoi(i >= 3),
			Retries:         i / 2,
			HostCrashes:     btoi(i >= 7),
		})
	}
	snap := s.Snapshot()
	if snap.Schema != OpsSchema || snap.Strategy != "Mistral" || snap.IntervalSec != 120 {
		t.Fatalf("header %+v", snap)
	}
	if snap.Windows != DefaultSlowWindows+5 || snap.Window != DefaultSlowWindows+4 {
		t.Fatalf("windows %d current %d", snap.Windows, snap.Window)
	}
	// The totals are the last window's, not a sum over windows.
	if snap.DegradedWindows != 1 || snap.DecideErrors != 1 || snap.HostCrashes != 1 || snap.Retries != (DefaultSlowWindows+4)/2 {
		t.Fatalf("aggregates %+v", snap)
	}
	if len(snap.SlowestWindows) != DefaultSlowWindows {
		t.Fatalf("leaderboard len %d", len(snap.SlowestWindows))
	}
	for i, sw := range snap.SlowestWindows {
		if sw.Window != i { // wall decreases with index, so slowest-first = index order
			t.Fatalf("leaderboard[%d] = window %d", i, sw.Window)
		}
	}
	if snap.UpdatedUnixMS == 0 {
		t.Fatal("snapshot missing update stamp")
	}

	// Mutating the returned slice must not reach the live state.
	snap.SlowestWindows[0].Window = -99
	if s.Snapshot().SlowestWindows[0].Window == -99 {
		t.Fatal("snapshot shares leaderboard backing array with state")
	}

	// BeginRun resets per-run aggregates (experiment grids reuse one state).
	s.BeginRun("Naive", time.Minute)
	if got := s.Snapshot(); got.Windows != 0 || got.Strategy != "Naive" || len(got.SlowestWindows) != 0 {
		t.Fatalf("BeginRun did not reset: %+v", got)
	}
}

// TestInsertSlowWindowMatchesSort proves the O(topN) leaderboard insertion
// reproduces the old sort-per-window implementation exactly: same
// descending order, same stable tie-breaking (first arrival wins), same
// truncation — checked after every single insertion, not just at the end.
func TestInsertSlowWindowMatchesSort(t *testing.T) {
	const topN = 5
	// Plenty of duplicates so ties exercise the stable ordering.
	walls := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6, 4, 3}
	var fast, ref []SlowWindow
	for i, wall := range walls {
		sw := SlowWindow{Window: i, Trace: TraceID(i), WallMS: wall}
		fast = insertSlowWindow(fast, sw, topN)
		ref = append(ref, sw)
		sort.SliceStable(ref, func(a, b int) bool { return ref[a].WallMS > ref[b].WallMS })
		if len(ref) > topN {
			ref = ref[:topN]
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("after window %d:\nfast %+v\nref  %+v", i, fast, ref)
		}
	}
	if len(fast) != topN {
		t.Fatalf("leaderboard length %d, want %d", len(fast), topN)
	}
	// topN <= 0 disables the leaderboard outright.
	if got := insertSlowWindow(nil, SlowWindow{WallMS: 1}, 0); got != nil {
		t.Fatalf("topN=0 retained %+v", got)
	}
}

// TestOpsNilSafe proves the nil state is fully inert and its handler
// still serves the empty document, so /ops can always be mounted.
func TestOpsNilSafe(t *testing.T) {
	var s *OpsState
	s.BeginRun("x", time.Minute)
	s.RecordWindow(OpsWindow{Window: 1})
	s.SetSLO([]byte(`{}`))
	if snap := s.Snapshot(); snap.Schema != OpsSchema || snap.Window != -1 {
		t.Fatalf("nil snapshot %+v", snap)
	}
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/ops", nil))
	var doc OpsSnapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &doc); err != nil || doc.Schema != OpsSchema {
		t.Fatalf("nil handler served %q (err %v)", rr.Body.String(), err)
	}
	var o *Observer
	if o.OpsState() != nil {
		t.Fatal("nil observer returned ops state")
	}
}

// TestOpsSLOAttachment checks the raw SLO document rides the snapshot.
func TestOpsSLOAttachment(t *testing.T) {
	s := NewOpsState()
	s.SetSLO(json.RawMessage(`{"schema":"mistral.slo/v1"}`))
	if got := string(s.Snapshot().SLO); got != `{"schema":"mistral.slo/v1"}` {
		t.Fatalf("slo %q", got)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
