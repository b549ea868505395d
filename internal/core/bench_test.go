package core

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// BenchmarkSearch measures the A* hot path the way the controller
// drives it in production: a cycle of control windows with drifting
// workload, each starting with the per-window cache boundary
// (Evaluator.BeginWindow) and then a Self-Aware search from the default
// configuration. One op is a full cycle over the workload points; every
// window starts from an empty memo.
//
// Beyond the standard ns/op and allocs/op, three custom metrics make runs
// comparable across fixtures: expansions/s (search throughput),
// ns/expansion, and expansions/op (divide allocs/op by it for
// allocs/expansion).
func BenchmarkSearch(b *testing.B) {
	e := newEnv(b, 8, 3)
	points := []float64{10, 25, 40, 55, 70, 55, 40, 25}
	type window struct {
		rates map[string]float64
		ideal Ideal
	}
	wins := make([]window, len(points))
	for i, r := range points {
		w := rates(e, r)
		ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
		if err != nil {
			b.Fatal(err)
		}
		wins[i] = window{rates: w, ideal: ideal}
	}
	s := NewSearcher(e.eval, SearchOptions{SelfAware: true, MaxExpansions: 2000})
	run := func() int {
		expanded := 0
		for _, win := range wins {
			e.eval.BeginWindow()
			res, err := s.Search(e.cfg, win.rates, 2*time.Hour, win.ideal, ExpectedUtility{}, cluster.ActionSpace{})
			if err != nil {
				b.Fatal(err)
			}
			expanded += res.Expanded
		}
		return expanded
	}
	run() // grow the memo's maps and the searcher's scratch once

	b.ReportAllocs()
	b.ResetTimer()
	expanded := 0
	for i := 0; i < b.N; i++ {
		expanded += run()
	}
	b.StopTimer()
	if expanded > 0 {
		b.ReportMetric(float64(expanded)/b.Elapsed().Seconds(), "expansions/s")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(expanded), "ns/expansion")
		b.ReportMetric(float64(expanded)/float64(b.N), "expansions/op")
	}
}
