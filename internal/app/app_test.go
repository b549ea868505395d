package app

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
)

func TestRUBiSSpecIsValid(t *testing.T) {
	s := RUBiS("rubis1")
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(s.Txns) != 9 {
		t.Errorf("transactions = %d, want 9 (browse-only mix)", len(s.Txns))
	}
	if len(s.Tiers) != 3 {
		t.Errorf("tiers = %d, want 3", len(s.Tiers))
	}
	web, ok := s.Tier(TierWeb)
	if !ok || web.MaxReplicas != 1 {
		t.Errorf("web tier = %+v ok=%v, want MaxReplicas 1", web, ok)
	}
	appTier, _ := s.Tier(TierApp)
	db, _ := s.Tier(TierDB)
	if appTier.MaxReplicas != 2 || db.MaxReplicas != 2 {
		t.Errorf("app/db MaxReplicas = %d/%d, want 2/2", appTier.MaxReplicas, db.MaxReplicas)
	}
	if s.TargetRT != 400*time.Millisecond {
		t.Errorf("TargetRT = %v, want 400ms", s.TargetRT)
	}
	if _, ok := s.Tier("nope"); ok {
		t.Error("unknown tier resolved")
	}
}

func TestSpecValidateRejectsBadSpecs(t *testing.T) {
	base := func() *Spec { return RUBiS("a") }
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"empty name", func(s *Spec) { s.Name = "" }, "empty name"},
		{"no tiers", func(s *Spec) { s.Tiers = nil }, "no tiers"},
		{"no txns", func(s *Spec) { s.Txns = nil }, "no transactions"},
		{"dup tier", func(s *Spec) { s.Tiers = append(s.Tiers, s.Tiers[0]) }, "duplicate tier"},
		{"bad replicas", func(s *Spec) { s.Tiers[0].MaxReplicas = 0 }, "MaxReplicas"},
		{"bad memory", func(s *Spec) { s.Tiers[0].VMMemoryMB = 0 }, "VM memory"},
		{"negative weight", func(s *Spec) { s.Txns[0].Weight = -1 }, "negative weight"},
		{"unknown tier ref", func(s *Spec) { s.Txns[0].DemandMS = map[string]float64{"ghost": 1} }, "unknown tier"},
		{"zero weights", func(s *Spec) {
			for i := range s.Txns {
				s.Txns[i].Weight = 0
			}
		}, "zero total weight"},
		{"bad target", func(s *Spec) { s.TargetRT = 0 }, "target response time"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			c.mutate(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestMixProbabilitiesNormalized(t *testing.T) {
	s := RUBiS("a")
	probs := s.MixProbabilities()
	var sum float64
	for _, p := range probs {
		if p < 0 {
			t.Errorf("negative probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probabilities sum to %v, want 1", sum)
	}
}

func TestMeanDemandMatchesManualComputation(t *testing.T) {
	s := &Spec{
		Name:     "x",
		Tiers:    []TierSpec{{Name: "t", MaxReplicas: 1, VMMemoryMB: 100}},
		Txns:     []TxnSpec{{Name: "a", Weight: 1, DemandMS: map[string]float64{"t": 10}}, {Name: "b", Weight: 3, DemandMS: map[string]float64{"t": 2}}},
		TargetRT: time.Second,
	}
	want := 0.25*10 + 0.75*2
	if got := s.MeanDemandMS("t"); math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanDemandMS = %v, want %v", got, want)
	}
	if got := s.MeanDemandMS("ghost"); got != 0 {
		t.Errorf("MeanDemandMS(ghost) = %v, want 0", got)
	}
}

// TestMeanFoldsBitIdenticalAndAllocFree pins the in-place mix folds to the
// formulation they replaced (a MixProbabilities slice, then the weighted
// sum): the Perf-Pwr gradient compares sums built from these values, so
// the last bit matters.
func TestMeanFoldsBitIdenticalAndAllocFree(t *testing.T) {
	scaled := RUBiS("scaled")
	scaled.ScaleDemands(0.8371946)
	for _, s := range []*Spec{RUBiS("rubis"), scaled} {
		probs := s.MixProbabilities()
		var wantLat float64
		for i, txn := range s.Txns {
			wantLat += probs[i] * txn.LatencyMS
		}
		if got := s.MeanLatencyMS(); math.Float64bits(got) != math.Float64bits(wantLat) {
			t.Errorf("%s: MeanLatencyMS = %v, old formula %v", s.Name, got, wantLat)
		}
		for _, tier := range []string{TierWeb, TierApp, TierDB, "ghost"} {
			var want float64
			for i, txn := range s.Txns {
				want += probs[i] * txn.DemandMS[tier]
			}
			if got := s.MeanDemandMS(tier); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: MeanDemandMS(%s) = %v, old formula %v", s.Name, tier, got, want)
			}
		}
		if n := testing.AllocsPerRun(100, func() { _ = s.MeanDemandMS(TierDB) + s.MeanLatencyMS() }); n != 0 {
			t.Errorf("%s: mean folds allocate %v times per call, want 0", s.Name, n)
		}
	}
}

func TestScaleDemands(t *testing.T) {
	s := RUBiS("a")
	before := s.MeanDemandMS(TierDB)
	s.ScaleDemands(2)
	after := s.MeanDemandMS(TierDB)
	if math.Abs(after-2*before) > 1e-12 {
		t.Errorf("after scale = %v, want %v", after, 2*before)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := RUBiS("a")
	c := s.Clone("b")
	if c.Name != "b" {
		t.Errorf("clone name = %q", c.Name)
	}
	c.ScaleDemands(10)
	if s.MeanDemandMS(TierApp) == c.MeanDemandMS(TierApp) {
		t.Error("scaling clone affected original")
	}
	c.Tiers[0].MaxReplicas = 99
	if s.Tiers[0].MaxReplicas == 99 {
		t.Error("tier slice shared between clone and original")
	}
}

func TestVMIDFor(t *testing.T) {
	s := RUBiS("rubis2")
	if got := s.VMIDFor(TierDB, 1); got != "rubis2-db-1" {
		t.Errorf("VMIDFor = %q", got)
	}
}

func TestBuildCatalog(t *testing.T) {
	hosts := []cluster.HostSpec{cluster.DefaultHostSpec("h0"), cluster.DefaultHostSpec("h1")}
	apps := []*Spec{RUBiS("rubis1"), RUBiS("rubis2")}
	cat, err := BuildCatalog(hosts, apps)
	if err != nil {
		t.Fatalf("BuildCatalog: %v", err)
	}
	// 1 web + 2 app + 2 db per application.
	if got := len(cat.VMIDs()); got != 10 {
		t.Errorf("VMs = %d, want 10", got)
	}
	if got := len(cat.TierVMs(cluster.TierKey{App: "rubis1", Tier: TierApp})); got != 2 {
		t.Errorf("app tier replicas = %d, want 2", got)
	}
	// Invalid app spec propagates.
	bad := RUBiS("bad")
	bad.Tiers = nil
	if _, err := BuildCatalog(hosts, []*Spec{bad}); err == nil {
		t.Error("BuildCatalog accepted invalid spec")
	}
}

func TestDefaultConfig(t *testing.T) {
	hosts := []cluster.HostSpec{
		cluster.DefaultHostSpec("h0"), cluster.DefaultHostSpec("h1"),
		cluster.DefaultHostSpec("h2"), cluster.DefaultHostSpec("h3"),
	}
	apps := []*Spec{RUBiS("rubis1"), RUBiS("rubis2")}
	cat, err := BuildCatalog(hosts, apps)
	if err != nil {
		t.Fatalf("BuildCatalog: %v", err)
	}
	cfg, err := DefaultConfig(cat, apps, 4, 40)
	if err != nil {
		t.Fatalf("DefaultConfig: %v", err)
	}
	if !cfg.IsCandidate(cat) {
		t.Errorf("default config invalid: %v", cfg.Validate(cat))
	}
	if got := len(cfg.ActiveVMs()); got != 6 {
		t.Errorf("active VMs = %d, want 6 (one per tier per app)", got)
	}
	if cfg.NumActiveHosts() != 4 {
		t.Errorf("active hosts = %d, want 4", cfg.NumActiveHosts())
	}
	for _, id := range cfg.ActiveVMs() {
		if p, _ := cfg.PlacementOf(id); p.CPUPct != 40 {
			t.Errorf("VM %s CPU = %v, want 40", id, p.CPUPct)
		}
	}
	// Infeasible request fails cleanly.
	if _, err := DefaultConfig(cat, apps, 1, 40); err == nil {
		t.Error("DefaultConfig packed 6 VMs at 40% on one 80% host")
	}
	if _, err := DefaultConfig(cat, apps, 0, 40); err == nil {
		t.Error("DefaultConfig accepted zero hosts")
	}
}
