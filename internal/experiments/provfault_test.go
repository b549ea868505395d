package experiments

import (
	"bytes"
	"testing"

	"github.com/mistralcloud/mistral/internal/fault"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
)

// TestProvenanceUnderFaults validates the flight recorder on the
// faultsweep path: a replay at a 30% fault profile — action failures,
// host crashes, sensor drops — must still emit a provenance stream that
// passes the full validator (schema, window sequencing, every ledger's
// arithmetic within tolerance), with the degraded windows present and
// carrying their reasons. The crash path is the interesting one: a
// degraded window's record has no search digest, and the validator must
// accept that shape without relaxing the checks on healthy windows.
func TestProvenanceUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario replay")
	}
	var buf bytes.Buffer
	rec := provenance.NewRecorder(&buf)
	rc := Recipe{Lab: LabOptions{NumApps: 2, Seed: 13}, Strategy: "mistral", FaultRate: 0.30}
	inj := shortReplay(t, rc, scenario.RunConfig{Provenance: rec}).Fault
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}

	recs, err := provenance.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	// The validator must hold on the degraded stream, not just the happy
	// path: schema, sequencing, and every ledger reconciling against the
	// search's reported utility.
	if err := provenance.CheckStream(recs); err != nil {
		t.Fatalf("fault-injected stream fails validation: %v", err)
	}

	degraded := 0
	for i := range recs {
		r := &recs[i]
		if r.Log.Degraded {
			degraded++
			if r.Log.DegradedReason == "" {
				t.Errorf("window %d degraded without a reason", r.Window)
			}
		}
		// Trace identity is recomputed, never stored: the record's window
		// index must round-trip through the canonical scheme.
		if got := obs.TraceID(r.Window); got != obs.WindowTrace(r.Window).TraceID {
			t.Fatalf("trace scheme drifted: %q", got)
		}
	}
	if degraded == 0 {
		t.Fatalf("30%% fault profile produced no degraded windows in %d records", len(recs))
	}
	counts := inj.Counts()
	if counts == (fault.Counts{}) {
		t.Error("injector drew no faults")
	}
	// Seed 13 deterministically injects a host crash, so the crash-window
	// record shape is exercised, not just action failures.
	if counts.HostCrashes == 0 {
		t.Error("profile drew no host crashes; crash-window records unexercised")
	}
	t.Logf("%d records, %d degraded, faults %+v", len(recs), degraded, inj.Counts())
}
