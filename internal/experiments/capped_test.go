package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
)

// TestCappedSearches pins the searches of PaperRecipe(42)'s Mistral day
// that end at the expansion cap: each of them expands 2 500 vertices and
// commits to the empty plan. They are what a stopping rule on the accrued
// Eq. 3 charge would cut, so this list moves with a change to that charge,
// to the stopping rule, to the expansion cap or to the per-child time, and
// with nothing else. With -v it logs, per capped search, the charge accrued
// at the cap, the gap between the frontier's head (its priority F when the
// search committed) and the stay-put utility it kept, and their ratio.
func TestCappedSearches(t *testing.T) {
	var buf bytes.Buffer
	rep, err := PaperRecipe(42).Build(scenario.RunConfig{Provenance: provenance.NewRecorder(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := provenance.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range recs {
		for _, d := range rec.Decisions {
			s := d.Search
			if s == nil || s.Termination != provenance.TermMaxExpansions {
				continue
			}
			got = append(got, fmt.Sprintf("%s@%d", d.Controller, rec.Window))
			if s.Expanded != 2500 || len(s.Chosen.Actions) != 0 || len(s.Rejected) == 0 {
				t.Errorf("%s window %d: capped after %d expansions with %d actions and %d open alternatives, want 2500, the empty plan and a frontier",
					d.Controller, rec.Window, s.Expanded, len(s.Chosen.Actions), len(s.Rejected))
				continue
			}
			gap := s.Rejected[0].F - s.Chosen.Utility
			t.Logf("%s window %d: charge $%.3f, frontier head − stay-put $%.3f, ratio %.3f",
				d.Controller, rec.Window, s.SearchCostDollars, gap, s.SearchCostDollars/gap)
		}
	}
	want := []string{"Mistral/L2@63", "Mistral/L2@76", "Mistral/L1-0@140", "Mistral/L1-0@149",
		"Mistral/L2@182", "Mistral/L2@184", "Mistral/L2@187", "Mistral/L2@193"}
	if !slices.Equal(got, want) {
		t.Errorf("capped searches %v, want %v", got, want)
	}
}
