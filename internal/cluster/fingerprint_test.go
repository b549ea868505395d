package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randMutate applies one random mutation through the fingerprint-maintaining
// mutators and returns a description for failure messages.
func randMutate(rng *rand.Rand, cat *Catalog, cfg *Config) string {
	hosts := cat.HostNames()
	vms := cat.VMIDs()
	switch rng.Intn(5) {
	case 0: // place (or re-place) a VM
		id := vms[rng.Intn(len(vms))]
		h := hosts[rng.Intn(len(hosts))]
		cpu := 10 + 10*float64(rng.Intn(7)) + rng.Float64()*0.004
		cfg.Place(id, h, cpu)
		return fmt.Sprintf("place %s on %s at %.4f", id, h, cpu)
	case 1: // unplace
		id := vms[rng.Intn(len(vms))]
		cfg.Unplace(id)
		return fmt.Sprintf("unplace %s", id)
	case 2: // host power
		h := hosts[rng.Intn(len(hosts))]
		on := rng.Intn(2) == 0
		cfg.SetHostOn(h, on)
		return fmt.Sprintf("set %s on=%v", h, on)
	case 3: // DVFS, including restores to full speed
		h := hosts[rng.Intn(len(hosts))]
		f := []float64{0.6, 0.733, 0.867, 1.0}[rng.Intn(4)]
		cfg.SetHostFreq(h, f)
		return fmt.Sprintf("set %s freq=%g", h, f)
	default: // crash re-placement: tear a VM down and restore it verbatim
		id := vms[rng.Intn(len(vms))]
		p, ok := cfg.PlacementOf(id)
		if !ok {
			return "noop"
		}
		cfg.Unplace(id)
		cfg.Place(id, p.Host, p.CPUPct)
		return fmt.Sprintf("re-place %s", id)
	}
}

// TestFingerprintMatchesRecompute drives long random mutation sequences
// through every mutator and checks after each step that the incrementally
// maintained fingerprint equals the from-scratch fold.
func TestFingerprintMatchesRecompute(t *testing.T) {
	cat := testCatalog(t, 4, 2)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		cfg := baseConfig(t, cat, 4, 40)
		if got, want := cfg.Fingerprint(), cfg.RecomputeFingerprint(); got != want {
			t.Fatalf("trial %d: base fingerprint %v != recompute %v", trial, got, want)
		}
		for step := 0; step < 200; step++ {
			desc := randMutate(rng, cat, &cfg)
			if got, want := cfg.Fingerprint(), cfg.RecomputeFingerprint(); got != want {
				t.Fatalf("trial %d step %d (%s): fingerprint %v != recompute %v", trial, step, desc, got, want)
			}
		}
	}
}

// TestFingerprintEqualIffKeyEqual checks the identity contract on random
// configuration pairs: equal fingerprints exactly when equal Key() strings.
func TestFingerprintEqualIffKeyEqual(t *testing.T) {
	cat := testCatalog(t, 3, 2)
	rng := rand.New(rand.NewSource(11))
	var cfgs []Config
	for i := 0; i < 60; i++ {
		cfg := baseConfig(t, cat, 3, 40)
		for step := 0; step < rng.Intn(10); step++ {
			randMutate(rng, cat, &cfg)
		}
		cfgs = append(cfgs, cfg)
	}
	for i := range cfgs {
		for j := range cfgs {
			fpEq := cfgs[i].Fingerprint() == cfgs[j].Fingerprint()
			keyEq := cfgs[i].Key() == cfgs[j].Key()
			if fpEq != keyEq {
				t.Fatalf("configs %d,%d: fp-equal=%v key-equal=%v\nkey i: %s\nkey j: %s",
					i, j, fpEq, keyEq, cfgs[i].Key(), cfgs[j].Key())
			}
			if eq := cfgs[i].Equal(cfgs[j]); eq != keyEq {
				t.Fatalf("configs %d,%d: Equal=%v key-equal=%v", i, j, eq, keyEq)
			}
		}
	}
}

// TestFingerprintBucketRounding pins the Key()-compatible rounding: CPU
// allocations within one 0.01% bucket and DVFS fractions within one 0.001
// bucket must collide, neighbours must not.
func TestFingerprintBucketRounding(t *testing.T) {
	mk := func(cpu, freq float64) Config {
		cfg := NewConfig()
		cfg.SetHostOn("host0", true)
		cfg.Place("rubis1-web-0", "host0", cpu)
		cfg.SetHostFreq("host0", freq)
		return cfg
	}
	a, b := mk(40.0, 0.8670), mk(40.0012, 0.86701)
	if a.Key() != b.Key() {
		t.Fatalf("expected same-bucket keys, got %q vs %q", a.Key(), b.Key())
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same-bucket configs have different fingerprints")
	}
	c := mk(40.02, 0.867)
	if a.Key() == c.Key() || a.Fingerprint() == c.Fingerprint() {
		t.Fatalf("neighbouring CPU buckets collided")
	}
}

// TestFingerprintDeltaMatchesApply stages every enumerable action and
// checks that the O(1) overlay fingerprint equals the materialized child's
// (both incremental and recomputed).
func TestFingerprintDeltaMatchesApply(t *testing.T) {
	cat := testCatalog(t, 4, 2)
	cfg := baseConfig(t, cat, 4, 40)
	cfg.SetHostFreq("host0", 0.867)
	for _, a := range Enumerate(cat, cfg, ActionSpace{}) {
		filled, delta, err := Stage(cat, cfg, a)
		if err != nil {
			t.Fatalf("stage %s: %v", a, err)
		}
		next, _, err := Apply(cat, cfg, a)
		if err != nil {
			t.Fatalf("apply %s: %v", a, err)
		}
		if got, want := cfg.FingerprintWith(delta), next.Fingerprint(); got != want {
			t.Fatalf("action %s: overlay fingerprint %v != applied %v", filled, got, want)
		}
		if got, want := next.Fingerprint(), next.RecomputeFingerprint(); got != want {
			t.Fatalf("action %s: applied fingerprint %v != recompute %v", filled, got, want)
		}
	}
}

// TestCloneSharedCopyOnWrite freezes a parent, mutates shared clones
// through every mutator, and checks the parent is untouched and each clone
// behaves exactly like a deep clone would.
func TestCloneSharedCopyOnWrite(t *testing.T) {
	cat := testCatalog(t, 4, 2)
	parent := baseConfig(t, cat, 4, 40)
	parent.SetHostFreq("host1", 0.867)
	parentKey := parent.Key()

	mutations := []struct {
		name string
		do   func(c *Config)
	}{
		{"place", func(c *Config) { c.Place("rubis1-app-1", "host2", 40) }},
		{"replace", func(c *Config) { c.Place("rubis1-web-0", "host3", 60) }},
		{"unplace", func(c *Config) { c.Unplace("rubis2-db-0") }},
		{"host-on", func(c *Config) { c.SetHostOn("host3", true) }},
		{"host-off", func(c *Config) { c.SetHostOn("host1", false) }},
		{"freq", func(c *Config) { c.SetHostFreq("host0", 0.733) }},
		{"freq-restore", func(c *Config) { c.SetHostFreq("host1", 1.0) }},
	}
	for _, m := range mutations {
		shared := parent.CloneShared()
		deep := parent.Clone()
		m.do(&shared)
		m.do(&deep)
		if parent.Key() != parentKey {
			t.Fatalf("%s: mutating a shared clone changed the parent", m.name)
		}
		if shared.Key() != deep.Key() {
			t.Fatalf("%s: shared clone key %q != deep clone key %q", m.name, shared.Key(), deep.Key())
		}
		if shared.Fingerprint() != deep.Fingerprint() || shared.Fingerprint() != shared.RecomputeFingerprint() {
			t.Fatalf("%s: shared clone fingerprint diverged", m.name)
		}
	}

	// Chained shared clones: grandchildren must not corrupt ancestors.
	c1 := parent.CloneShared()
	c1.Place("rubis1-app-1", "host0", 40)
	c2 := c1.CloneShared()
	c2.SetHostOn("host3", true)
	c2.Place("rubis2-app-1", "host3", 40)
	if parent.Key() != parentKey {
		t.Fatalf("chained shared clones corrupted the root")
	}
	if c2.Fingerprint() != c2.RecomputeFingerprint() {
		t.Fatalf("chained shared clone fingerprint diverged")
	}
}

// FuzzFingerprintOps feeds arbitrary mutation scripts to the mutators and
// checks the incremental/recomputed fingerprint and the fp/Key identity
// invariants hold after every operation — and that every action staged from
// where the operation left the configuration folds, from the view, to the
// fingerprint of the applied configuration, and loads, from the view's
// arrays, into the view Load makes of the applied configuration.
func FuzzFingerprintOps(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xc3, 0x14})
	f.Add([]byte{0xff, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
	f.Add([]byte("place-unplace-place"))
	// host0 to 0.6, host1 to 0.867, host0 back to nominal and down again:
	// set-dvfs is staged to nominal, between levels, and on host2, which
	// never had a hostFreq entry.
	f.Add([]byte{0x03, 0x08, 0x3f, 0x03})
	f.Fuzz(func(t *testing.T, script []byte) {
		cat := testCatalog(t, 3, 1, 0.6, 0.733, 0.867)
		hosts := cat.HostNames()
		vms := cat.VMIDs()
		cfg := baseConfig(t, cat, 2, 40)
		moves := ActionSpace{}.Resolve(cat)
		var view, child, built View
		var staged []Staged
		for i, b := range script {
			switch b % 5 {
			case 0:
				cfg.Place(vms[int(b/5)%len(vms)], hosts[i%len(hosts)], 10+float64(b%8)*10)
			case 1:
				cfg.Unplace(vms[int(b/5)%len(vms)])
			case 2:
				cfg.SetHostOn(hosts[int(b/5)%len(hosts)], b&0x80 == 0)
			case 3:
				cfg.SetHostFreq(hosts[int(b/5)%len(hosts)], []float64{0.6, 0.733, 0.867, 1.0}[int(b>>2)%4])
			case 4:
				if p, ok := cfg.PlacementOf(vms[int(b/5)%len(vms)]); ok {
					cfg.Unplace(vms[int(b/5)%len(vms)])
					cfg.Place(vms[int(b/5)%len(vms)], p.Host, p.CPUPct)
				}
			}
			if cfg.Fingerprint() != cfg.RecomputeFingerprint() {
				t.Fatalf("op %d (byte %#x): incremental fingerprint diverged from recompute", i, b)
			}
			if !view.Load(cat, cfg) {
				t.Fatalf("op %d (byte %#x): configuration left the catalog", i, b)
			}
			staged = view.Expand(&moves, staged[:0])
			for k := range staged {
				s := &staged[k]
				applied := cfg.Clone()
				applied.ApplyDelta(s.Delta(cat))
				if got, want := view.FingerprintWith(cfg.Fingerprint(), s), applied.RecomputeFingerprint(); got != want {
					t.Fatalf("op %d (byte %#x): %s folds to %v, applied configuration %v", i, b, s.Action(cat), got, want)
				}
				child.LoadStaged(cat, view.VMHost, view.VMCPU, view.HostOn, view.HostFreq, s)
				if !built.Load(cat, applied) {
					t.Fatalf("op %d (byte %#x): %s leaves the catalog", i, b, s.Action(cat))
				}
				if diff := viewDiff(&child, &built); diff != "" {
					t.Fatalf("op %d (byte %#x): %s loaded from the parent's arrays: %s", i, b, s.Action(cat), diff)
				}
			}
		}
		clone := cfg.Clone()
		if !clone.Equal(cfg) || clone.Key() != cfg.Key() {
			t.Fatalf("clone identity broken")
		}
	})
}

// viewDiff names the first array in which two views differ, comparing
// floating-point entries bit for bit; "" when they are equal.
func viewDiff(a, b *View) string {
	floats := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	switch {
	case a.cat != b.cat:
		return "catalog"
	case !slices.Equal(a.VMHost, b.VMHost):
		return fmt.Sprintf("VMHost %v, want %v", a.VMHost, b.VMHost)
	case !floats(a.VMCPU, b.VMCPU):
		return fmt.Sprintf("VMCPU %v, want %v", a.VMCPU, b.VMCPU)
	case !slices.Equal(a.HostOn, b.HostOn):
		return fmt.Sprintf("HostOn %v, want %v", a.HostOn, b.HostOn)
	case !floats(a.HostFreq, b.HostFreq):
		return fmt.Sprintf("HostFreq %v, want %v", a.HostFreq, b.HostFreq)
	case !floats(a.HostCPU, b.HostCPU):
		return fmt.Sprintf("HostCPU %v, want %v", a.HostCPU, b.HostCPU)
	case !slices.Equal(a.HostMem, b.HostMem):
		return fmt.Sprintf("HostMem %v, want %v", a.HostMem, b.HostMem)
	case !slices.Equal(a.HostVMs, b.HostVMs):
		return fmt.Sprintf("HostVMs %v, want %v", a.HostVMs, b.HostVMs)
	case !slices.Equal(a.TierActive, b.TierActive):
		return fmt.Sprintf("TierActive %v, want %v", a.TierActive, b.TierActive)
	case !slices.Equal(a.hostApps, b.hostApps):
		return fmt.Sprintf("hostApps %v, want %v", a.hostApps, b.hostApps)
	}
	return ""
}
