package tsdb

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestScoreVirtualFlagsSpike(t *testing.T) {
	s := New(Options{})
	d := NewDetector()
	// A noisy-but-bounded baseline.
	vals := []float64{10, 11, 10, 12, 11, 10, 11, 12, 10, 11, 12, 10, 11, 10, 12, 11}
	for w, v := range vals {
		if a := d.ScoreVirtual(s, "util", w, v); a != nil {
			t.Fatalf("baseline window %d flagged: %+v", w, a)
		}
		s.Append("util", ClassVirtual, w, v)
	}
	// In-band sample: no verdict.
	if a := d.ScoreVirtual(s, "util", 16, 12); a != nil {
		t.Fatalf("in-band sample flagged: %+v", a)
	}
	// A 10x spike must flag.
	a := d.ScoreVirtual(s, "util", 16, 110)
	if a == nil {
		t.Fatal("spike not flagged")
	}
	if a.Kind != "mad-z" || a.Series != "util" || a.Window != 16 || a.Score <= 6 {
		t.Fatalf("anomaly = %+v", a)
	}
}

func TestScoreVirtualColdStartAndFlatBaseline(t *testing.T) {
	s := New(Options{})
	d := NewDetector()
	// Under MinSamples: never flags, even on wild values.
	s.Append("x", ClassVirtual, 0, 1)
	s.Append("x", ClassVirtual, 1, 1)
	if a := d.ScoreVirtual(s, "x", 2, 1e9); a != nil {
		t.Fatalf("cold start flagged: %+v", a)
	}
	// Flat baseline (MAD == 0): never flags — no division-by-zero pages
	// from flag-like series that sit at a constant.
	for w := 0; w < 20; w++ {
		s.Append("flat", ClassVirtual, w, 5)
	}
	if a := d.ScoreVirtual(s, "flat", 20, 500); a != nil {
		t.Fatalf("flat baseline flagged: %+v", a)
	}
}

func TestScoreVirtualDeterministic(t *testing.T) {
	run := func() []Anomaly {
		s := New(Options{})
		d := NewDetector()
		var out []Anomaly
		for w := 0; w < 100; w++ {
			v := float64((w*37)%11) * 0.5
			if w == 60 || w == 80 {
				v = 1000
			}
			if a := d.ScoreVirtual(s, "u", w, v); a != nil {
				out = append(out, *a)
			}
			s.Append("u", ClassVirtual, w, v)
		}
		return out
	}
	a, _ := json.Marshal(run())
	b, _ := json.Marshal(run())
	if !bytes.Equal(a, b) {
		t.Fatalf("verdicts differ across identical runs:\n%s\n%s", a, b)
	}
	var got []Anomaly
	json.Unmarshal(a, &got)
	if len(got) != 2 || got[0].Window != 60 || got[1].Window != 80 {
		t.Fatalf("verdicts = %+v", got)
	}
}

func TestScoreWallDrift(t *testing.T) {
	d := NewDetector()
	// Stable ~50ms decides.
	for w := 0; w < 20; w++ {
		if a := d.ScoreWall("decide_wall_ms", w, 50+float64(w%3)); a != nil {
			t.Fatalf("stable wall flagged at %d: %+v", w, a)
		}
	}
	a := d.ScoreWall("decide_wall_ms", 20, 5000)
	if a == nil {
		t.Fatal("wall spike not flagged")
	}
	if a.Kind != "ewma-drift" || a.Score < 8 {
		t.Fatalf("anomaly = %+v", a)
	}
	// Sustained shift becomes the new baseline: keep feeding 5000 and the
	// detector must eventually stop flagging.
	flagged := 0
	for w := 21; w < 120; w++ {
		if d.ScoreWall("decide_wall_ms", w, 5000) != nil {
			flagged++
		}
	}
	if flagged == 99 {
		t.Fatal("EWMA never adapted to the sustained shift")
	}
}

func TestDetectorStateRoundTrip(t *testing.T) {
	d := NewDetector()
	for w := 0; w < 30; w++ {
		d.ScoreWall("wall_a", w, float64(50+w%5))
		d.ScoreWall("wall_b", w, float64(200+w%9))
	}
	st := d.State()
	if st == nil || len(st.EWMA) != 2 {
		t.Fatalf("state = %+v", st)
	}
	raw, _ := json.Marshal(st)
	var decoded DetectorState
	json.Unmarshal(raw, &decoded)
	d2 := NewDetector()
	d2.Restore(&decoded)
	// Both detectors must produce identical verdicts from here on.
	for w := 30; w < 40; w++ {
		a1 := d.ScoreWall("wall_a", w, 50)
		a2 := d2.ScoreWall("wall_a", w, 50)
		if (a1 == nil) != (a2 == nil) {
			t.Fatalf("window %d: verdicts diverge (%v vs %v)", w, a1, a2)
		}
	}
	j1, _ := json.Marshal(d.State())
	j2, _ := json.Marshal(d2.State())
	if !bytes.Equal(j1, j2) {
		t.Fatalf("post-restore states diverge:\n%s\n%s", j1, j2)
	}
	// Nil detector is safe.
	var nd *Detector
	if nd.ScoreVirtual(nil, "a", 0, 1) != nil || nd.ScoreWall("a", 0, 1) != nil || nd.State() != nil {
		t.Fatal("nil detector leaked verdicts")
	}
	nd.Restore(nil)
}

func TestMedianAndSqrt(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median empty = %v", m)
	}
	if s := sqrt(0); s != 0 {
		t.Fatalf("sqrt(0) = %v", s)
	}
	if s := sqrt(16); s < 3.999999 || s > 4.000001 {
		t.Fatalf("sqrt(16) = %v", s)
	}
}
