package core

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/obs"
)

// TestEvaluatorCacheStats exercises the CacheStats accessor and the
// BeginWindow flush into the metrics registry.
func TestEvaluatorCacheStats(t *testing.T) {
	e := newEnv(t, 2, 1)
	reg := obs.NewRegistry()
	e.eval.SetObserver(&obs.Observer{Metrics: reg})

	rates := map[string]float64{"rubis1": 50}
	if _, err := e.eval.Steady(e.cfg, rates); err != nil {
		t.Fatal(err)
	}
	if _, err := e.eval.Steady(e.cfg, rates); err != nil {
		t.Fatal(err)
	}
	s := e.eval.CacheStats()
	if s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", hr)
	}

	e.eval.BeginWindow()
	if got := reg.CounterValue("eval_cache_hits_total"); got != 1 {
		t.Errorf("eval_cache_hits_total = %d, want 1", got)
	}
	if got := reg.CounterValue("eval_cache_misses_total"); got != 1 {
		t.Errorf("eval_cache_misses_total = %d, want 1", got)
	}
	if got := reg.CounterValue("lqn_solves_total"); got != 1 {
		t.Errorf("lqn_solves_total = %d, want 1", got)
	}
	if s := e.eval.CacheStats(); s != (CacheStats{}) {
		t.Errorf("stats after reset = %+v, want zero", s)
	}
	if hr := (CacheStats{}).HitRate(); hr != 0 {
		t.Errorf("empty hit rate = %v, want 0", hr)
	}
}

// TestSearchResultObservabilityFields checks the fields added for span
// population (PeakFrontier, RootDistance) and the search counters.
func TestSearchResultObservabilityFields(t *testing.T) {
	e := newEnv(t, 4, 2)
	reg := obs.NewRegistry()
	e.eval.SetObserver(&obs.Observer{Metrics: reg})

	rates := map[string]float64{"rubis1": 50, "rubis2": 50}
	ideal, err := PerfPwr(e.eval, rates, PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(e.eval, SearchOptions{SelfAware: true})
	s.SetObserver(&obs.Observer{Metrics: reg})
	res, err := s.Search(e.cfg, rates, 8*time.Minute, ideal, ExpectedUtility{}, cluster.ActionSpace{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Expanded > 0 && res.PeakFrontier < 1 {
		t.Errorf("PeakFrontier = %d, want >= 1", res.PeakFrontier)
	}
	if !ideal.Config.Equal(e.cfg) && res.RootDistance <= 0 {
		t.Errorf("RootDistance = %v, want > 0", res.RootDistance)
	}
	if got := reg.CounterValue("search_invocations_total"); got != 1 {
		t.Errorf("search_invocations_total = %d, want 1", got)
	}
	if got := reg.CounterValue("search_expansions_total"); got != int64(res.Expanded) {
		t.Errorf("search_expansions_total = %d, want %d", got, res.Expanded)
	}
	if h := reg.Histogram("search_expansions", nil).Snapshot(); h.Count != 1 {
		t.Errorf("search_expansions histogram count = %d, want 1", h.Count)
	}
}
