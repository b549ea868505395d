package main

import (
	"math"
	"math/rand"
	"testing"
)

// syntheticReplay builds reps repetitions of one deterministic trace of n
// operations whose clean costs are multi-modal (cheap windows, mid windows
// and a slow decile), each followed by a probe of refProbeNS. Every
// repetition carries small additive jitter and one burst during which the
// host runs 20 % slow for several seconds' worth of operations — operation
// and probe alike.
func syntheticReplay(rng *rand.Rand, n, reps int) (clean []float64, measured, probes [][]float64) {
	clean = make([]float64, n)
	for i := range clean {
		switch {
		case i%10 == 9:
			clean[i] = 400e6 + 50e6*rng.Float64()
		case i%3 == 0:
			clean[i] = 30e6 + 2e6*rng.Float64()
		default:
			clean[i] = 12e6 + 1e6*rng.Float64()
		}
	}
	for r := 0; r < reps; r++ {
		m, p := make([]float64, n), make([]float64, n)
		burstAt := rng.Intn(n - n/4)
		for i := range m {
			slow := 1.0
			if i >= burstAt && i < burstAt+n/4 {
				slow = 1.2
			}
			m[i] = clean[i]*slow + 0.2e6*rng.ExpFloat64()
			p[i] = refProbeNS * slow * (1 + 0.01*rng.Float64())
		}
		measured, probes = append(measured, m), append(probes, p)
	}
	return clean, measured, probes
}

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Abs(want) {
		t.Errorf("%s = %.6g, want %.6g within %.1f%%", what, got, want, 100*tol)
	}
}

// The estimate of every end-to-end shape statistic must stay within 3 % of
// the clean value although a fifth of the time of every repetition ran
// 20 % slow.
func TestEstimatorsRejectBursts(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clean, measured, probes := syntheticReplay(rng, 180, 2)

		norm := make([][]float64, len(measured))
		for r := range measured {
			norm[r] = normalise(measured[r], probes[r])
		}
		env := envelopeMin(norm)
		within(t, "iqMean", iqMean(env), iqMean(clean), 0.03)
		gotTail, n := tailMean(env)
		wantTail, _ := tailMean(clean)
		if n != 18 {
			t.Fatalf("tailMean averaged %d samples of 180, want 18", n)
		}
		within(t, "tailMean", gotTail, wantTail, 0.03)
		within(t, "segmentMinTotal", segmentMinTotal(norm, 10), sum(clean), 0.03)
	}
}

// A burst that the probe cannot see (time the scheduler gave to someone
// else) is rejected by the per-index minimum as long as it does not strike
// the same operations in every repetition.
func TestEnvelopeRejectsInvisibleBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clean, measured, _ := syntheticReplay(rng, 180, 3)
	flat := make([]float64, 180)
	for i := range flat {
		flat[i] = refProbeNS
	}
	for r := range measured {
		for i := range measured[r] {
			measured[r][i] = clean[i]
		}
		for i := 40 * r; i < 40*r+40; i++ {
			measured[r][i] *= 1.2
		}
		measured[r] = normalise(measured[r], flat)
	}
	within(t, "iqMean", iqMean(envelopeMin(measured)), iqMean(clean), 1e-9)
	within(t, "segmentMinTotal", segmentMinTotal(measured, 10), sum(clean), 1e-9)
}

func TestLocalSpeedIsAMedianOverNeighbours(t *testing.T) {
	probes := make([]float64, 40)
	for i := range probes {
		probes[i] = 100
	}
	probes[20] = 10000 // one probe hit by a stall must not move anything
	for i, s := range localSpeed(probes, probeHalfWindow) {
		if s != 100 {
			t.Fatalf("localSpeed[%d] = %v, want 100", i, s)
		}
	}
	got := normalise([]float64{50, 50}, []float64{2 * refProbeNS, 2 * refProbeNS})
	if got[0] != 25 || got[1] != 25 {
		t.Fatalf("normalise at half speed = %v, want [25 25]", got)
	}
}

func TestIQMeanAndTailMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100, 1000, 5, 5}
	// sorted: 1 2 3 4 5 5 5 6 7 8 100 1000; drop 3 from each end.
	if got, want := iqMean(xs), (4+5+5+5+6+7)/6.0; got != want {
		t.Errorf("iqMean = %v, want %v", got, want)
	}
	if got, n := tailMean(xs); n != 2 || got != 550 {
		t.Errorf("tailMean = %v over %d, want 550 over 2", got, n)
	}
	if got, n := tailMean([]float64{3}); n != 1 || got != 3 {
		t.Errorf("tailMean of one sample = %v over %d", got, n)
	}
}

// The nested-span fixture: a window with two sequential children, one of
// which has a child of its own, an overlapping pair, and a layer probe
// attached after the window ended.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "window", ID: 1, StartNS: 0, EndNS: 100},
		{Name: "strategy.decide", ID: 2, Parent: 1, StartNS: 10, EndNS: 70},
		{Name: "provenance.write", ID: 3, Parent: 1, StartNS: 80, EndNS: 85},
		{Name: "inner", ID: 4, Parent: 2, StartNS: 20, EndNS: 30},
		{Name: "overlap-a", ID: 5, Parent: 4, StartNS: 21, EndNS: 26},
		{Name: "overlap-b", ID: 6, Parent: 4, StartNS: 24, EndNS: 29},
		{Name: "core.search", ID: 7, Parent: 1, StartNS: 500, EndNS: 900},
	}
	want := map[int]int64{1: 100 - 60 - 5, 2: 60 - 10, 3: 5, 4: 10 - 8, 5: 5, 6: 5, 7: 400}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	// Self times of a window and its direct children add up to its wall.
	if sum := got[1] + (spans[1].EndNS - spans[1].StartNS) + (spans[2].EndNS - spans[2].StartNS); sum != 100 {
		t.Errorf("window self + children = %d, want the window's 100", sum)
	}
}
