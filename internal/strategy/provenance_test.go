package strategy

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// replayMistralProvenance runs the seeded scenario under a fresh hierarchy
// with the flight recorder on, returning the raw JSONL bytes it produced.
func replayMistralProvenance(t *testing.T, seed uint64) []byte {
	t.Helper()
	l := newLab(t)
	m, err := NewMistral(l.eval, MistralConfig{
		HostGroups: [][]string{l.cat.HostNames()[:2], l.cat.HostNames()[2:]},
		Search:     core.SearchOptions{MaxExpansions: 800, TimePerChild: time.Millisecond},
		Provenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := seededTraces(l, seed)
	tb, err := testbed.New(l.cat, l.apps, l.cfg, traces.At(0), nil, testbed.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = scenario.Run(tb, m, scenario.RunConfig{
		Traces:     traces,
		Duration:   45 * time.Minute,
		Utility:    l.util,
		Provenance: provenance.NewRecorder(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProvenanceWorkersDeterminism is the acceptance gate for the flight
// recorder: two fresh hierarchy replays must serialize byte-identical
// provenance streams — vertex digests, rejected-alternative order, and
// ledger floats included — and the streams must pass the mistral-explain
// --check validation.
func TestProvenanceWorkersDeterminism(t *testing.T) {
	for _, seed := range []uint64{7, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := replayMistralProvenance(t, seed)
			if len(ref) == 0 {
				t.Fatal("no provenance recorded")
			}
			if got := replayMistralProvenance(t, seed); !bytes.Equal(ref, got) {
				t.Fatalf("provenance stream diverges between two replays:\n--- first ---\n%s\n--- second ---\n%s",
					firstDiff(ref, got), firstDiff(got, ref))
			}
			recs, err := provenance.ReadAll(bytes.NewReader(ref))
			if err != nil {
				t.Fatal(err)
			}
			if err := provenance.CheckStream(recs); err != nil {
				t.Errorf("stream fails validation: %v", err)
			}
		})
	}
}

// firstDiff returns the line of a where a and b first disagree.
func firstDiff(a, b []byte) []byte {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range la {
		if i >= len(lb) || !bytes.Equal(la[i], lb[i]) {
			return la[i]
		}
	}
	return nil
}
