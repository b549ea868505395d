package strategy

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/sim"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/workload"
)

// seededTraces is shortTraces with a caller-chosen jitter seed, so the
// determinism test can cover several workload realizations.
func seededTraces(l *lab, seed uint64) workload.Set {
	set := make(workload.Set, len(l.names))
	for i, n := range l.names {
		rng := sim.NewRNG(seed, uint64(i))
		rates := make([]float64, 61)
		for j := range rates {
			var base float64
			switch {
			case j < 20:
				base = 20 + float64(5*i)
			case j < 40:
				base = 70 - float64(10*i)
			default:
				base = 35
			}
			rates[j] = base + rng.Normal(0, 1)
		}
		set[n] = &workload.Trace{Step: time.Minute, Rates: rates}
	}
	return set
}

// fingerprintingDecider wraps the hierarchy and records every decision's
// observable surface, exact to the last bit via %v on the floats.
type fingerprintingDecider struct {
	scenario.Decider
	log []string
}

func (f *fingerprintingDecider) Decide(now time.Duration, cfg cluster.Config, rates map[string]float64) (scenario.Decision, error) {
	d, err := f.Decider.Decide(now, cfg, rates)
	if err == nil {
		f.log = append(f.log, fmt.Sprintf("%v st=%v cost=%v plan=%v", now, d.SearchTime, d.SearchCost, d.Plan))
	}
	return d, err
}

// replayMistral runs the seeded scenario under a fresh hierarchy with the
// given process observer, returning the replay result and the per-decision
// fingerprints.
func replayMistral(t *testing.T, seed uint64, o *obs.Observer) (*scenario.Result, []string) {
	t.Helper()
	obs.SetDefault(o)
	defer obs.SetDefault(nil)
	l := newLab(t)
	m, err := NewMistral(l.eval, MistralConfig{
		HostGroups: [][]string{l.cat.HostNames()[:2], l.cat.HostNames()[2:]},
		Search:     core.SearchOptions{MaxExpansions: 800, TimePerChild: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := seededTraces(l, seed)
	tb, err := testbed.New(l.cat, l.apps, l.cfg, traces.At(0), nil, testbed.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rec := &fingerprintingDecider{Decider: m}
	res, err := scenario.Run(tb, rec, scenario.RunConfig{
		Traces:   traces,
		Duration: 45 * time.Minute,
		Utility:  l.util,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.log
}

// TestMistralWorkersDeterminism pins the whole hierarchy's determinism: two
// fresh replays of one scenario produce byte-identical decision fingerprints
// and cumulative utility, and so does a third with observability fully
// enabled (metrics + spans + debug logs), across multiple seeds.
func TestMistralWorkersDeterminism(t *testing.T) {
	for _, seed := range []uint64{7, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			refRes, refLog := replayMistral(t, seed, nil)
			againRes, againLog := replayMistral(t, seed, nil)
			if a, b := strings.Join(refLog, "\n"), strings.Join(againLog, "\n"); a != b {
				t.Fatalf("decisions diverge between two replays:\n--- first ---\n%s\n--- second ---\n%s", a, b)
			}
			if refRes.CumUtility != againRes.CumUtility {
				t.Errorf("cumulative utility diverged: %v vs %v", refRes.CumUtility, againRes.CumUtility)
			}
			if refRes.TotalActions != againRes.TotalActions {
				t.Errorf("action count diverged: %d vs %d", refRes.TotalActions, againRes.TotalActions)
			}

			var trace bytes.Buffer
			full := &obs.Observer{
				Metrics: obs.NewRegistry(),
				Trace:   obs.NewTracer(&trace, obs.FormatJSONL),
				Log:     slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})),
			}
			obsRes, obsLog := replayMistral(t, seed, full)
			if err := full.Trace.Close(); err != nil {
				t.Fatal(err)
			}
			if a, b := strings.Join(refLog, "\n"), strings.Join(obsLog, "\n"); a != b {
				t.Fatalf("decisions diverge with tracing enabled:\n--- untraced ---\n%s\n--- traced ---\n%s", a, b)
			}
			if refRes.CumUtility != obsRes.CumUtility {
				t.Errorf("cumulative utility diverged with tracing: %v vs %v", refRes.CumUtility, obsRes.CumUtility)
			}
			if trace.Len() == 0 {
				t.Error("tracing produced no spans")
			}
		})
	}
}
