package main

import "sort"

// The estimators below are the benchmark's whole defence against a noisy
// shared host. They are pure functions of sample slices so the unit tests
// can drive them with synthetic series carrying injected slow bursts.

// refProbeNS is P_REF: the speed probe's nominal cost. Every wall-clock
// metric is reported in "reference seconds", i.e. scaled as if the probe
// had taken exactly this long next to the measured operation.
const refProbeNS = 0.5e6

// probeHalfWindow is how many neighbouring operations on each side feed
// the local-speed median.
const probeHalfWindow = 9

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// localSpeed returns, per operation, the median probe time over the
// operation's ±half neighbours (clamped at the ends of the series).
func localSpeed(probes []float64, half int) []float64 {
	out := make([]float64, len(probes))
	for i := range probes {
		lo, hi := i-half, i+half+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(probes) {
			hi = len(probes)
		}
		out[i] = median(probes[lo:hi])
	}
	return out
}

// normalise scales each measured time by refProbeNS over the local probe
// speed: an operation that ran while the host was 20 % slow (its
// neighbouring probes took 20 % longer) is scaled back by the same factor.
func normalise(measured, probes []float64) []float64 {
	return scale(measured, localSpeed(probes, probeHalfWindow))
}

// scale converts measured times to reference time given the local probe
// speed next to each of them.
func scale(measured, speed []float64) []float64 {
	out := make([]float64, len(measured))
	for i, m := range measured {
		out[i] = m
		if speed[i] > 0 {
			out[i] = m * refProbeNS / speed[i]
		}
	}
	return out
}

// speedFactor is the factor raw time was multiplied by, on the whole, to
// give reference time: above 1 on a host faster than the reference.
func speedFactor(probes []float64) float64 {
	if m := median(probes); m > 0 {
		return refProbeNS / m
	}
	return 1
}

// envelopeMin is the per-index minimum across repetitions of the same
// deterministic input: noise only ever adds time, so the minimum at each
// index is the least-disturbed observation of that operation.
func envelopeMin(reps [][]float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	out := append([]float64(nil), reps[0]...)
	for _, r := range reps[1:] {
		for i := range out {
			if i < len(r) && r[i] < out[i] {
				out[i] = r[i]
			}
		}
	}
	return out
}

// segmentMinTotal splits the index range into runs of seg consecutive
// operations, takes each run's total per repetition, keeps the smallest
// total per run and sums them. Unlike envelopeMin it keeps the cost that
// is spread over neighbouring operations (garbage collection), while a
// multi-second burst still spoils only the runs it overlaps in one
// repetition.
func segmentMinTotal(reps [][]float64, seg int) float64 {
	if len(reps) == 0 || seg <= 0 {
		return 0
	}
	var total float64
	for lo := 0; lo < len(reps[0]); lo += seg {
		hi := lo + seg
		if hi > len(reps[0]) {
			hi = len(reps[0])
		}
		best := sum(reps[0][lo:hi])
		for _, r := range reps[1:] {
			if s := sum(r[lo:hi]); s < best {
				best = s
			}
		}
		total += best
	}
	return total
}

// iqMean is the interquartile mean: the mean of the samples left after
// dropping the lowest and the highest quarter. Unlike the median it does
// not sit in a gap of a multi-modal distribution.
func iqMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	return mean(s[cut : len(s)-cut])
}

// tailMean is the mean of the slowest tenth of the samples (at least one),
// with the number of samples it averaged.
func tailMean(xs []float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := (len(s) + 9) / 10
	return mean(s[len(s)-n:]), n
}

// span is one traced interval. Parent is the ID of the span that caused it
// (0 for a root); Window is the control window all spans of one "request"
// share.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Window  int    `json:"window"`
}

// selfTimes returns every span's duration minus the part of its interval
// that its direct children cover. Children are clipped to the parent and
// overlapping children are counted once, so a layer probe attached to a
// window span after the fact (outside the parent's interval) takes nothing
// away from it.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, p := range spans {
		cs := kids[p.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNS < cs[j].StartNS })
		covered, edge := int64(0), p.StartNS
		for _, c := range cs {
			lo, hi := c.StartNS, c.EndNS
			if lo < edge {
				lo = edge
			}
			if hi > p.EndNS {
				hi = p.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[p.ID] = p.EndNS - p.StartNS - covered
	}
	return out
}
