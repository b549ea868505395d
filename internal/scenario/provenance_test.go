package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/provenance"
)

// TestRunEmitsProvenanceRecords checks the one-record-per-window contract:
// every monitoring window lands in the JSONL stream — invoked, idle, and
// busy (plan still executing) windows alike — and the stream passes the
// same validation mistral-explain --check applies.
func TestRunEmitsProvenanceRecords(t *testing.T) {
	tb, util, traces, _ := setup(t)
	d := &scripted{
		name: "mover",
		decisions: []Decision{{
			Invoked:    true,
			Plan:       []cluster.Action{{Kind: cluster.ActionIncreaseCPU, VM: "rubis1-web-0"}},
			SearchTime: 3 * time.Second,
			SearchCost: 0.05,
		}},
	}
	var buf bytes.Buffer
	rec := provenance.NewRecorder(&buf)
	res, err := Run(tb, d, RunConfig{
		Traces: traces, Duration: 30 * time.Minute, Utility: util, Provenance: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Count() != len(res.Windows) {
		t.Fatalf("recorded %d windows, result has %d", rec.Count(), len(res.Windows))
	}
	recs, err := provenance.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := provenance.CheckStream(recs); err != nil {
		t.Errorf("stream fails validation: %v", err)
	}
	if !recs[0].Log.Invoked || recs[0].Log.Actions != 1 {
		t.Errorf("first record: invoked=%v actions=%d, want invoked with 1 action", recs[0].Log.Invoked, recs[0].Log.Actions)
	}
	if recs[0].Log.SearchCost != 0.05 {
		t.Errorf("first record search cost %v, want 0.05", recs[0].Log.SearchCost)
	}
	for i, r := range recs {
		if r.Strategy != "mover" {
			t.Fatalf("record %d strategy %q", i, r.Strategy)
		}
		if !reflect.DeepEqual(r.Log, res.Windows[i]) {
			t.Fatalf("record %d log %+v != window %+v", i, r.Log, res.Windows[i])
		}
	}
}

// TestRunProvenanceMarksDegradedWindows checks that a decider failure is
// recorded with its reason in both the WindowLog and the provenance record.
func TestRunProvenanceMarksDegradedWindows(t *testing.T) {
	tb, util, traces, _ := setup(t)
	d := &scripted{name: "bad", errAt: 3}
	var buf bytes.Buffer
	rec := provenance.NewRecorder(&buf)
	res, err := Run(tb, d, RunConfig{
		Traces: traces, Duration: 30 * time.Minute, Utility: util, Provenance: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Windows[2]
	if !w.Degraded || !strings.HasPrefix(w.DegradedReason, "decide: ") {
		t.Errorf("window 2: degraded=%v reason=%q, want decide failure", w.Degraded, w.DegradedReason)
	}
	recs, err := provenance.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := recs[2]
	if !r.Log.Degraded || !r.Log.DecideError || r.Log.DegradedReason != w.DegradedReason {
		t.Errorf("record 2: degraded=%v decide error=%v reason=%q, want a decide error %q",
			r.Log.Degraded, r.Log.DecideError, r.Log.DegradedReason, w.DegradedReason)
	}
	for i, r := range recs {
		if i != 2 && r.Log.Degraded {
			t.Errorf("record %d unexpectedly degraded: %q", i, r.Log.DegradedReason)
		}
	}
}

// TestRunProvenanceDisabledIsByteIdentical checks the zero-overhead
// contract at the replay level: a nil recorder leaves Results and
// WindowLogs identical to an unrecorded run.
func TestRunProvenanceDisabledIsByteIdentical(t *testing.T) {
	run := func(rec *provenance.Recorder) *Result {
		tb, util, traces, _ := setup(t)
		d := &scripted{
			name: "mover",
			decisions: []Decision{{
				Invoked:    true,
				Plan:       []cluster.Action{{Kind: cluster.ActionIncreaseCPU, VM: "rubis1-web-0"}},
				SearchTime: 3 * time.Second,
				SearchCost: 0.05,
			}},
		}
		res, err := Run(tb, d, RunConfig{
			Traces: traces, Duration: 30 * time.Minute, Utility: util, Provenance: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var buf bytes.Buffer
	plain, recorded := run(nil), run(provenance.NewRecorder(&buf))
	if !resultsEqual(plain, recorded) {
		t.Errorf("recording changed the replay:\nplain:    %+v\nrecorded: %+v", plain, recorded)
	}
}

// resultsEqual compares two results field by field (reflect.DeepEqual is
// too strict for nil-vs-empty map distinctions that JSON treats the same).
func resultsEqual(a, b *Result) bool {
	if a.Strategy != b.Strategy || a.CumUtility != b.CumUtility ||
		a.TotalActions != b.TotalActions || a.Invocations != b.Invocations ||
		a.MeanSearchTime != b.MeanSearchTime || len(a.Windows) != len(b.Windows) {
		return false
	}
	for i := range a.Windows {
		wa, wb := a.Windows[i], b.Windows[i]
		if wa.Time != wb.Time || wa.Utility != wb.Utility || wa.Watts != wb.Watts ||
			wa.Actions != wb.Actions || wa.Invoked != wb.Invoked ||
			wa.Degraded != wb.Degraded || wa.DegradedReason != wb.DegradedReason {
			return false
		}
	}
	return true
}
