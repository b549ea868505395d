package provenance

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleRecord builds a fully populated Record exercising every schema
// field, with arithmetic that passes Validate.
func sampleRecord() *Record {
	chosen := PlanLedger{
		Actions: []ActionProv{
			{Action: "migrate vm-a h0 -> h1", DurationSec: 45, RateDollarsPerSec: -0.002, CostDollars: 45 * -0.002},
			{Action: "stop-host h0", DurationSec: 30, RateDollarsPerSec: -0.001, CostDollars: 30 * -0.001},
		},
		PlanDurationSec: 75,
		SteadyPerfRate:  0.004,
		SteadyPwrRate:   -0.0015,
		SteadySec:       405,
	}
	chosen.TransientDollars = chosen.Actions[0].CostDollars + chosen.Actions[1].CostDollars
	chosen.SteadyDollars = (chosen.SteadyPerfRate + chosen.SteadyPwrRate) * chosen.SteadySec
	chosen.Utility = chosen.TransientDollars + chosen.SteadyDollars

	altLedger := PlanLedger{
		Actions: []ActionProv{
			{Action: "increase-cpu vm-b +10%", DurationSec: 1, RateDollarsPerSec: 0.001, CostDollars: 0.001},
		},
		TransientDollars: 0.001,
		PlanDurationSec:  1,
		SteadyPerfRate:   0.003,
		SteadyPwrRate:    -0.002,
		SteadySec:        479,
	}
	altLedger.SteadyDollars = (altLedger.SteadyPerfRate + altLedger.SteadyPwrRate) * altLedger.SteadySec
	altLedger.Utility = altLedger.TransientDollars + altLedger.SteadyDollars

	return &Record{
		Schema:   SchemaV2,
		Window:   7,
		Strategy: "Mistral",
		Log: WindowLog{
			Time:        960 * time.Second,
			Rates:       map[string]float64{"rubis1": 42.5},
			RTSec:       map[string]float64{"rubis1": 0.21},
			Watts:       512,
			Utility:     0.91,
			CumUtility:  6.4,
			Actions:     2,
			Invoked:     true,
			SearchTime:  12 * time.Millisecond,
			SearchCost:  2.5e-7,
			Expansions:  41,
			ActiveHosts: 3,
		},
		Decisions: []*DecisionProv{{
			Controller: "Mistral/L2",
			Predict: &PredictProv{
				BandWidth:    8,
				MeasuredSec:  240,
				PredictedSec: 310,
				CWSec:        480,
				Floor:        "min-cw",
				Beta:         0.25,
				ARMAMeasured: []float64{120, 240},
				ARMAErrors:   []float64{30, 10},
			},
			Search: &SearchDigest{
				Termination:       TermEpsilon,
				Utility:           chosen.Utility,
				SearchTimeSec:     0.012,
				SearchCostDollars: 2.5e-7,
				Expanded:          41,
				Generated:         180,
				PrunedChildren:    60,
				PeakFrontier:      25,
				RootDistance:      3.5,
				Chosen:            chosen,
				Rejected: []Alternative{{
					Depth:    1,
					F:        altLedger.Utility + 0.05,
					G:        altLedger.TransientDollars,
					H:        altLedger.Utility + 0.05 - altLedger.TransientDollars,
					Distance: 2.5,
					Ledger:   altLedger,
				}},
				Vertices: []VertexProv{
					{Seq: 1, Depth: 0, F: 1.2, G: 0, H: 1.2, Distance: 3.5, Frontier: 0},
					{Seq: 2, Depth: 1, F: 1.1, G: -0.05, H: 1.15, Distance: 2.5, Frontier: 9},
				},
				DroppedVertices: 39,
				Events: []EventProv{
					{Expansion: 12, Kind: EventWidthPrune, Reason: ReasonDelayThreshold, Dropped: 11, ElapsedSec: 0.006},
				},
			},
		}},
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	if err := r.Append(sampleRecord()); err != nil {
		t.Errorf("nil Append: %v", err)
	}
	if r.Count() != 0 || r.Err() != nil {
		t.Error("nil recorder has state")
	}
}

func TestRecorderAppendAndReadAll(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	rec := sampleRecord()
	rec.Schema = "" // Append must stamp it
	if err := r.Append(rec); err != nil {
		t.Fatal(err)
	}
	empty := &Record{Window: 8, Strategy: "Mistral", Busy: true, Log: WindowLog{Time: 1080 * time.Second}}
	if err := r.Append(empty); err != nil {
		t.Fatal(err)
	}
	if r.Count() != 2 {
		t.Errorf("Count = %d, want 2", r.Count())
	}
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Errorf("output has %d newlines, want 2 (one JSON object per line)", got)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("ReadAll = %d records", len(recs))
	}
	if recs[0].Schema != SchemaV2 {
		t.Errorf("schema not stamped: %q", recs[0].Schema)
	}
	if !recs[1].Busy || recs[1].Window != 8 {
		t.Errorf("round-trip lost fields: %+v", recs[1])
	}
	if err := CheckStream(recs); err != nil {
		t.Errorf("CheckStream: %v", err)
	}
}

// TestRecorderDeterministicBytes guards the determinism contract: the same
// record serializes to the same bytes every time.
func TestRecorderDeterministicBytes(t *testing.T) {
	serialize := func() string {
		var buf bytes.Buffer
		r := NewRecorder(&buf)
		if err := r.Append(sampleRecord()); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := serialize(), serialize()
	if a != b {
		t.Fatalf("serialization is not deterministic:\n%s\nvs\n%s", a, b)
	}
}

type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestRecorderStickyError(t *testing.T) {
	r := NewRecorder(&failingWriter{})
	if err := r.Append(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(sampleRecord()); err == nil {
		t.Fatal("want write error")
	}
	if r.Err() == nil {
		t.Error("error not sticky")
	}
	if err := r.Append(sampleRecord()); err == nil {
		t.Error("append after error must keep failing")
	}
	if r.Count() != 1 {
		t.Errorf("Count = %d, want 1", r.Count())
	}
}

func TestValidateCatchesInconsistencies(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*Record)
	}{
		{"bad schema", func(r *Record) { r.Schema = "bogus/v0" }},
		{"ledger sum mismatch", func(r *Record) { r.Decisions[0].Search.Chosen.TransientDollars += 1e-6 }},
		{"utility mismatch", func(r *Record) { r.Decisions[0].Search.Utility += 1e-6 }},
		{"action cost mismatch", func(r *Record) { r.Decisions[0].Search.Chosen.Actions[0].CostDollars += 1e-6 }},
		{"steady mismatch", func(r *Record) { r.Decisions[0].Search.Chosen.SteadyDollars += 1e-6 }},
		{"unknown termination", func(r *Record) { r.Decisions[0].Search.Termination = "gave-up" }},
		{"fgh mismatch", func(r *Record) { r.Decisions[0].Search.Rejected[0].H += 1e-6 }},
		{"degraded without reason", func(r *Record) { r.Decisions[0].Degraded = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := sampleRecord()
			if err := rec.Validate(); err != nil {
				t.Fatalf("sample record must validate before corruption: %v", err)
			}
			tc.break_(rec)
			if err := rec.Validate(); err == nil {
				t.Error("corrupted record validated")
			}
		})
	}
}

func TestValidateToleratesFloatNoise(t *testing.T) {
	rec := sampleRecord()
	rec.Decisions[0].Search.Utility += 1e-12 // below Tolerance
	if err := rec.Validate(); err != nil {
		t.Errorf("sub-tolerance noise rejected: %v", err)
	}
}

func TestValidateSkipsErroredLedgers(t *testing.T) {
	rec := sampleRecord()
	rec.Decisions[0].Search.Chosen.Error = "replay failed"
	rec.Decisions[0].Search.Chosen.TransientDollars = math.Inf(1) // would fail checks
	rec.Decisions[0].Search.Chosen.Utility = 0
	if err := rec.Validate(); err != nil {
		t.Errorf("errored ledger must be skipped: %v", err)
	}
}

func TestCheckStreamSequencing(t *testing.T) {
	mk := func(w int) Record { return Record{Schema: SchemaV2, Window: w} }
	if err := CheckStream([]Record{mk(0), mk(1), mk(2), mk(0), mk(1)}); err != nil {
		t.Errorf("segment reset rejected: %v", err)
	}
	if err := CheckStream([]Record{mk(0), mk(2)}); err == nil {
		t.Error("gap accepted")
	}
	if err := CheckStream([]Record{mk(0), mk(1), mk(1)}); err == nil {
		t.Error("repeated window accepted")
	}
	// A daemon retries the window whose measurement failed under its index.
	aborted := mk(1)
	aborted.Log.Aborted = true
	if err := CheckStream([]Record{mk(0), aborted, mk(1), mk(2)}); err != nil {
		t.Errorf("retry of an aborted window rejected: %v", err)
	}
	if err := CheckStream([]Record{mk(0), aborted, mk(2)}); err == nil {
		t.Error("window after an aborted one accepted without its retry")
	}
}

// TestReadAllRefusesV1: a v1 stream is refused with an error naming both
// schemas and asking for a re-recording; a foreign schema is refused too.
func TestReadAllRefusesV1(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{`{"schema":"mistral.provenance/v1","window":0,"t_sec":120,"strategy":"Mistral","invoked":true,"utility_dollars":0.5,"cum_utility_dollars":0.5,"watts":400}`,
			`line 1: schema "mistral.provenance/v1" is no longer read (want "mistral.provenance/v2"): re-record the run`},
		{`{"schema":"mistral.checkpoint-file/v1","scenario":{}}`, `line 1: schema "mistral.checkpoint-file/v1", want "mistral.provenance/v2"`},
		{`{"window":0}`, `line 1: schema "", want "mistral.provenance/v2"`},
	} {
		_, err := ReadAll(strings.NewReader(tc.line + "\n"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadAll(%s) = %v, want an error containing %q", tc.line, err, tc.want)
		}
	}
}

// TestGoldenRecordSchema pins the JSONL wire format: any schema change
// must be deliberate (run with -update and bump SchemaV2 if the change is
// incompatible).
func TestGoldenRecordSchema(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(&buf)
	if err := r.Append(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(&Record{Window: 8, Strategy: "Mistral", Busy: true, Log: WindowLog{Time: 1080 * time.Second}}); err != nil {
		t.Fatal(err)
	}
	degraded := &Record{
		Window: 9, Strategy: "Mistral",
		Log: WindowLog{
			Time: 1200 * time.Second, Invoked: true, DecideError: true,
			Degraded: true, DegradedReason: "decide: perfpwr: no feasible packing",
		},
		Decisions: []*DecisionProv{{
			Controller: "Mistral/L2", Degraded: true,
			DegradedReason: "perfpwr: no feasible packing",
		}},
	}
	if err := r.Append(degraded); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "record_v2.golden.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/provenance -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("record serialization diverged from golden file:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
	recs, err := ReadAll(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckStream(recs); err != nil {
		t.Errorf("golden stream fails its own check: %v", err)
	}
}
