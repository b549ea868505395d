package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// TestSearchWorkersDeterminism pins run-to-run determinism of the ideal and
// the search: two replays on fresh evaluators produce the same Perf-Pwr
// ideal and the same full SearchResult — plan, utility, virtual search time,
// cost, and every counter — so no fold depends on map iteration order.
func TestSearchWorkersDeterminism(t *testing.T) {
	for _, load := range []float64{10, 40, 70} {
		run := func() (Ideal, SearchResult) {
			e := newEnv(t, 4, 2)
			w := rates(e, load)
			ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
			if err != nil {
				t.Fatal(err)
			}
			e.eval.ResetCache()
			s := NewSearcher(e.eval, SearchOptions{SelfAware: true, MaxExpansions: 600})
			res, err := s.Search(e.cfg, w, time.Hour, ideal, ExpectedUtility{}, cluster.ActionSpace{})
			if err != nil {
				t.Fatalf("load %v: %v", load, err)
			}
			return ideal, res
		}
		ideal, first := run()
		idealAgain, second := run()
		if !reflect.DeepEqual(ideal, idealAgain) {
			t.Fatalf("load %v: PerfPwr diverges between two replays", load)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("load %v: SearchResult diverges between two replays:\n first: %+v\nsecond: %+v",
				load, first, second)
		}
	}
}

// TestControllerDecideWorkersDeterminism runs a full controller decision on
// two fresh evaluators and requires identical Decisions.
func TestControllerDecideWorkersDeterminism(t *testing.T) {
	decide := func() Decision {
		e := newEnv(t, 4, 2)
		ctrl, err := NewController(e.eval, ControllerOptions{
			Name:   "L2",
			Search: SearchOptions{MaxExpansions: 400},
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := ctrl.Decide(0, e.cfg, rates(e, 20))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	first, second := decide(), decide()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("Decision diverges between two replays:\n first: %+v\nsecond: %+v", first, second)
	}
}
