package core

import (
	"reflect"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/provenance"
)

// TestSearchProvenanceDigest runs an instrumented consolidation search and
// checks the flight-recorder digest: the chosen plan's Eq. 3 ledger must
// reproduce SearchResult.Utility bit-for-bit (the replay performs the same
// float operations in the same order), and the whole digest must pass the
// provenance validator that mistral-explain --check applies.
func TestSearchProvenanceDigest(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 10)
	ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(e.eval, SearchOptions{MaxExpansions: 1500, Provenance: true})
	res, err := s.Search(e.cfg, w, time.Hour, ideal, ExpectedUtility{}, cluster.ActionSpace{})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Prov
	if d == nil {
		t.Fatal("Provenance enabled but SearchResult.Prov is nil")
	}
	if d.Termination == "" {
		t.Error("no termination reason recorded")
	}
	if d.Expanded != res.Expanded || d.Generated != res.Generated {
		t.Errorf("digest stats (%d, %d) disagree with result (%d, %d)",
			d.Expanded, d.Generated, res.Expanded, res.Generated)
	}
	if res.Expanded > 0 && len(d.Vertices) == 0 {
		t.Error("expansions ran but no vertices digested")
	}
	if len(d.Vertices)+d.DroppedVertices != res.Expanded {
		t.Errorf("vertices %d + dropped %d != expanded %d", len(d.Vertices), d.DroppedVertices, res.Expanded)
	}
	if len(d.Rejected) > provMaxRejected {
		t.Errorf("%d rejected alternatives, cap is %d", len(d.Rejected), provMaxRejected)
	}
	if len(res.Plan) != len(d.Chosen.Actions) {
		t.Errorf("plan has %d actions, ledger has %d", len(res.Plan), len(d.Chosen.Actions))
	}
	if d.Chosen.Utility != res.Utility {
		t.Errorf("chosen ledger utility %v != search utility %v (want bit-exact)", d.Chosen.Utility, res.Utility)
	}
	rec := &provenance.Record{
		Schema: provenance.SchemaV2, Strategy: "test", Log: provenance.WindowLog{Invoked: true},
		Decisions: []*provenance.DecisionProv{{Controller: "test", Search: d}},
	}
	if err := rec.Validate(); err != nil {
		t.Errorf("digest fails provenance validation: %v", err)
	}
}

// TestSearchProvenanceZeroImpact checks the zero-overhead contract: the
// instrumented search returns the same plan, utility, and statistics as the
// uninstrumented one, and the uninstrumented one carries no digest.
func TestSearchProvenanceZeroImpact(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 10)
	ideal, err := PerfPwr(e.eval, w, PerfPwrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(prov bool) SearchResult {
		s := NewSearcher(e.eval, SearchOptions{MaxExpansions: 1500, Provenance: prov})
		res, err := s.Search(e.cfg, w, time.Hour, ideal, ExpectedUtility{}, cluster.ActionSpace{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(false), run(true)
	if off.Prov != nil {
		t.Error("Prov set with provenance disabled")
	}
	if on.Prov == nil {
		t.Fatal("Prov nil with provenance enabled")
	}
	on.Prov = nil
	if !reflect.DeepEqual(off, on) {
		t.Errorf("instrumented search changed the result:\noff: %+v\non:  %+v", off, on)
	}
}

// TestControllerDecisionProvenance checks the controller-level capture: the
// prediction context (band, measured vs. predicted interval, floors, ARMA
// state) and the search digest ride on the Decision.
func TestControllerDecisionProvenance(t *testing.T) {
	e := newEnv(t, 4, 2)
	ctrl, err := NewController(e.eval, ControllerOptions{
		Name:       "L2",
		BandWidth:  8,
		Search:     SearchOptions{MaxExpansions: 400},
		Provenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := ctrl.Decide(0, e.cfg, rates(e, 50))
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Invoked {
		t.Fatal("first decision not invoked")
	}
	p := d1.Prov
	if p == nil || p.Predict == nil || p.Search == nil {
		t.Fatalf("incomplete provenance: %+v", p)
	}
	if p.Controller != "L2" {
		t.Errorf("controller label %q", p.Controller)
	}
	if p.Predict.BandWidth != 8 {
		t.Errorf("band width %v", p.Predict.BandWidth)
	}
	if p.Predict.CWSec != d1.CW.Seconds() {
		t.Errorf("prov CW %vs != decision CW %v", p.Predict.CWSec, d1.CW)
	}
	// The seed prediction (2×M = 4 min) is below the MinCW floor (8 min).
	if p.Predict.Floor != "min-cw" {
		t.Errorf("floor %q, want min-cw", p.Predict.Floor)
	}

	// A band escape measures the stability interval and feeds the ARMA
	// estimator; the provenance must carry both.
	d2, err := ctrl.Decide(10*time.Minute, e.cfg, rates(e, 70))
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Invoked {
		t.Fatal("band escape did not invoke controller")
	}
	if got := d2.Prov.Predict.MeasuredSec; got != 600 {
		t.Errorf("measured interval %vs, want 600s", got)
	}
	if len(d2.Prov.Predict.ARMAMeasured) == 0 {
		t.Error("ARMA measurement history empty after an observation")
	}
}
