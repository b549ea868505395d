package cluster

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// diffLab is one fixture of the view differential tests: a catalog shaped
// like one of the experiment labs and the action spaces the controllers use
// on it.
type diffLab struct {
	name   string
	cat    *Catalog
	spaces []ActionSpace
}

// diffLabs mirrors the 2-app, 4-app and two-zone DVFS labs: 1 web + 2 app +
// 2 db VMs per application on 2 hosts per application, an optional tier so
// dormant tiers are legal somewhere, and per lab the unrestricted space, a
// 1st-level space (Kinds + Hosts) and a pooled space (AppPools).
func diffLabs(t *testing.T) []diffLab {
	t.Helper()
	build := func(name string, nApps, zones int, dvfs []float64) diffLab {
		cc := CatalogConfig{OptionalTiers: []TierKey{{App: "rubis2", Tier: "app"}}}
		nHosts := 2 * nApps
		for i := 0; i < nHosts; i++ {
			h := DefaultHostSpec(fmt.Sprintf("h%d", i))
			h.DVFSLevels = dvfs
			if zones > 1 {
				h.Zone = fmt.Sprintf("dc%d", i*zones/nHosts)
			}
			cc.Hosts = append(cc.Hosts, h)
		}
		pools := map[string][]string{}
		for a := 0; a < nApps; a++ {
			app := fmt.Sprintf("rubis%d", a+1)
			for _, tier := range []string{"web", "app", "db"} {
				n := 2
				if tier == "web" {
					n = 1
				}
				for r := 0; r < n; r++ {
					cc.VMs = append(cc.VMs, VMSpec{ID: VMID(fmt.Sprintf("%s-%s-%d", app, tier, r)), App: app, Tier: tier, Replica: r, MemoryMB: 200})
				}
			}
			if a > 0 { // rubis1 stays unpooled
				pools[app] = []string{fmt.Sprintf("h%d", 2*a), fmt.Sprintf("h%d", 2*a+1), "ghost"}
			}
		}
		cat, err := NewCatalog(cc)
		if err != nil {
			t.Fatal(err)
		}
		hosts := cat.HostNames()
		return diffLab{name: name, cat: cat, spaces: []ActionSpace{
			{},
			{
				Kinds: []ActionKind{ActionIncreaseCPU, ActionDecreaseCPU, ActionMigrate, ActionSetDVFS},
				Hosts: hosts[:len(hosts)/2],
			},
			{Kinds: []ActionKind{ActionAddReplica, ActionRemoveReplica, ActionWANMigrate, ActionStartHost, ActionStopHost}},
			{AppPools: pools},
		}}
	}
	return []diffLab{
		build("2apps", 2, 1, nil),
		build("4apps", 4, 1, nil),
		build("2apps-dvfs-2zones", 2, 2, []float64{0.6, 0.8}),
	}
}

// randomConfig draws a configuration that fits the catalog but is otherwise
// unconstrained. Half the draws are wild: hosts on or off, VMs dormant or
// anywhere (also on a host that is off), CPU allocations from below the
// minimum to above a host's usable share, hosts oversubscribed in CPU,
// memory and VM count, tiers left without a replica, DVFS levels supported
// or not. The other half start from a candidate (first replica of every tier
// round-robin at the minimum allocation) and take up to two wild mutations,
// so candidates and near-candidates are both well represented.
func randomConfig(cat *Catalog, rng *rand.Rand) Config {
	cfg := NewConfig()
	hosts := cat.HostNames()
	mutate := func() {
		h := hosts[rng.IntN(len(hosts))]
		id := cat.VMIDs()[rng.IntN(len(cat.VMIDs()))]
		switch rng.IntN(5) {
		case 0:
			cfg.SetHostOn(h, !cfg.HostOn(h))
		case 1:
			cfg.Unplace(id)
		case 2:
			if spec, _ := cat.Host(h); spec.SupportsDVFS() {
				cfg.SetHostFreq(h, []float64{0.6, 0.7, 0.8, 1}[rng.IntN(4)]) // 0.7 is not a level
			}
		default:
			cfg.Place(id, h, float64(10*(1+rng.IntN(9))))
		}
	}
	if rng.IntN(2) == 0 {
		for _, h := range hosts {
			cfg.SetHostOn(h, true)
		}
		for i, k := range cat.Tiers() {
			cfg.Place(cat.TierVMs(k)[0], hosts[i%len(hosts)], cat.MinCPUPct)
		}
		for n := rng.IntN(3); n > 0; n-- {
			mutate()
		}
		return cfg
	}
	for n := 2 * len(cat.VMIDs()); n > 0; n-- {
		mutate()
	}
	return cfg
}

// proposals is every action shape Stage can be asked about on the catalog,
// feasible or not: each kind against each VM and host, plus names outside
// the catalog, zero and explicit step sizes, and an unknown kind.
func proposals(cat *Catalog) []Action {
	vms := append([]VMID{"ghost-vm", ""}, cat.VMIDs()...)
	hosts := append([]string{"ghost-host", ""}, cat.HostNames()...)
	var out []Action
	for _, id := range vms {
		out = append(out,
			Action{Kind: ActionIncreaseCPU, VM: id},
			Action{Kind: ActionIncreaseCPU, VM: id, DeltaCPUPct: 30},
			Action{Kind: ActionDecreaseCPU, VM: id},
			Action{Kind: ActionDecreaseCPU, VM: id, DeltaCPUPct: 30, Host: "stale"},
			Action{Kind: ActionRemoveReplica, VM: id})
		for _, h := range hosts {
			out = append(out,
				Action{Kind: ActionAddReplica, VM: id, Host: h},
				Action{Kind: ActionAddReplica, VM: id, Host: h, CPUPct: 35},
				Action{Kind: ActionMigrate, VM: id, Host: h},
				Action{Kind: ActionWANMigrate, VM: id, Host: h})
		}
	}
	for _, h := range hosts {
		out = append(out,
			Action{Kind: ActionStartHost, Host: h},
			Action{Kind: ActionStopHost, Host: h},
			Action{Kind: ActionSetDVFS, Host: h, Freq: 0.6},
			Action{Kind: ActionSetDVFS, Host: h, Freq: 0.7},
			Action{Kind: ActionSetDVFS, Host: h, Freq: 1})
	}
	return append(out, Action{Kind: ActionKind(99), VM: vms[2], Host: hosts[2]})
}

// TestViewMatchesReference is the differential test of the dense view
// against the map-reading code it replaced (reference_test.go), on seeded
// random configurations of the three labs under every action space: Expand
// yields exactly what Enumerate-then-Stage yielded — same order, equal
// filled actions and deltas, indices naming the same VM and host — the
// public Enumerate returns the old unfilled list, Stage agrees with the old
// Stage on every proposal down to the error text, and Candidate equals
// IsCandidate.
func TestViewMatchesReference(t *testing.T) {
	for _, lab := range diffLabs(t) {
		lab := lab
		t.Run(lab.name, func(t *testing.T) {
			cat := lab.cat
			rng := rand.New(rand.NewPCG(7, uint64(len(cat.VMIDs()))))
			props := proposals(cat)
			var v View
			var staged []Staged
			children, refused, candidates := 0, 0, 0
			for trial := 0; trial < 120; trial++ {
				cfg := randomConfig(cat, rng)
				if !v.Load(cat, cfg) {
					t.Fatalf("trial %d: %s does not fit the catalog", trial, cfg)
				}
				want := cfg.IsCandidate(cat)
				if got := v.Candidate(); got != want {
					t.Fatalf("trial %d: Candidate = %t, IsCandidate = %t for %s: %v", trial, got, want, cfg, cfg.Validate(cat))
				}
				if want {
					candidates++
				}
				for si, space := range lab.spaces {
					ref := referenceEnumerate(cat, cfg, space)
					if got := Enumerate(cat, cfg, space); !reflect.DeepEqual(got, ref) {
						t.Fatalf("trial %d space %d: Enumerate\n got %v\nwant %v", trial, si, got, ref)
					}
					moves := space.Resolve(cat)
					staged = v.Expand(&moves, staged[:0])
					if len(staged) != len(ref) {
						t.Fatalf("trial %d space %d: Expand yields %d actions, reference %d", trial, si, len(staged), len(ref))
					}
					for i, a := range ref {
						filled, delta, err := referenceStage(cat, cfg, a)
						if err != nil {
							t.Fatalf("trial %d: reference refuses its own action %s: %v", trial, a, err)
						}
						s := staged[i]
						if act, d := s.Action(cat), s.Delta(cat); act != filled || d != delta {
							t.Fatalf("trial %d space %d child %d:\n got %+v %+v\nwant %+v %+v", trial, si, i, act, d, filled, delta)
						}
						if (s.VM < 0) != (filled.VM == "") || (s.VM >= 0 && cat.VMIDs()[s.VM] != filled.VM) {
							t.Fatalf("trial %d child %s: VM index %d", trial, filled, s.VM)
						}
						if (s.Host < 0) != (filled.Host == "") || (s.Host >= 0 && cat.HostNames()[s.Host] != filled.Host) {
							t.Fatalf("trial %d child %s: host index %d", trial, filled, s.Host)
						}
						children++
					}
				}
				if trial%4 != 0 {
					continue
				}
				for _, a := range props {
					wantA, wantD, wantErr := referenceStage(cat, cfg, a)
					gotA, gotD, gotErr := Stage(cat, cfg, a)
					if gotA != wantA || gotD != wantD || (gotErr == nil) != (wantErr == nil) ||
						(gotErr != nil && gotErr.Error() != wantErr.Error()) {
						t.Fatalf("trial %d: Stage(%+v)\n got %+v %+v %v\nwant %+v %+v %v", trial, a, gotA, gotD, gotErr, wantA, wantD, wantErr)
					}
					if wantErr != nil {
						refused++
					}
				}
			}
			if children == 0 || refused == 0 || candidates == 0 || candidates == 120 {
				t.Fatalf("fixture too weak: %d children, %d refusals, %d/120 candidates", children, refused, candidates)
			}
		})
	}
}

// TestViewRejectsForeignConfig pins the boundary: a configuration naming a
// VM or host outside the catalog does not load, Enumerate yields nothing for
// it instead of judging the part that fits, and Stage refuses an action on a
// VM whose host the catalog does not know.
func TestViewRejectsForeignConfig(t *testing.T) {
	cat := testCatalog(t, 2, 1)
	for name, mutate := range map[string]func(*Config){
		"unknown VM":         func(c *Config) { c.Place("ghost", "host0", 20) },
		"VM on unknown host": func(c *Config) { c.Place("rubis1-app-1", "ghost", 20) },
		"unknown host on":    func(c *Config) { c.SetHostOn("ghost", true) },
		"unknown host DVFS":  func(c *Config) { c.SetHostFreq("ghost", 0.8) },
	} {
		cfg := baseConfig(t, cat, 2, 20)
		mutate(&cfg)
		var v View
		if v.Load(cat, cfg) {
			t.Errorf("%s: view loaded", name)
		}
		if got := Enumerate(cat, cfg, ActionSpace{}); got != nil {
			t.Errorf("%s: Enumerate = %v", name, got)
		}
	}
	cfg := baseConfig(t, cat, 2, 20)
	cfg.Place("rubis1-app-1", "ghost", 20)
	if _, _, err := Stage(cat, cfg, Action{Kind: ActionIncreaseCPU, VM: "rubis1-app-1"}); err == nil {
		t.Error("Stage accepted an action on a VM placed outside the catalog")
	}
}

// TestViewPlaceMatchesConfig drives random Place and SetHostOn sequences on
// a loaded view and the same mutations on the configuration it holds: after
// every step the view must be Load of the mutated configuration, array for
// array, and the fingerprint it folded the configuration's own.
func TestViewPlaceMatchesConfig(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, lab := range diffLabs(t) {
		cat := lab.cat
		for trial := 0; trial < 50; trial++ {
			cfg := randomConfig(cat, rng)
			var v View
			if !v.Load(cat, cfg) {
				t.Fatalf("%s: random configuration does not fit", lab.name)
			}
			fp := cfg.Fingerprint()
			for step := 0; step < 20; step++ {
				h := rng.IntN(len(cat.HostNames()))
				if rng.IntN(4) == 0 {
					on := rng.IntN(2) == 0
					fp = v.SetHostOn(fp, h, on)
					cfg.SetHostOn(cat.HostNames()[h], on)
				} else {
					vm := rng.IntN(len(cat.VMIDs()))
					id := cat.VMIDs()[vm]
					if rng.IntN(4) == 0 {
						fp = v.Place(fp, vm, Dormant, 0)
						cfg.Unplace(id)
					} else {
						cpu := 20 + 5*float64(rng.IntN(13))
						fp = v.Place(fp, vm, h, cpu)
						cfg.Place(id, cat.HostNames()[h], cpu)
					}
				}
				var want View
				want.Load(cat, cfg)
				if fp != cfg.Fingerprint() {
					t.Fatalf("%s trial %d step %d: fingerprint %v, configuration's %v", lab.name, trial, step, fp, cfg.Fingerprint())
				}
				if !reflect.DeepEqual(v, want) {
					t.Fatalf("%s trial %d step %d: view differs from Load of the configuration", lab.name, trial, step)
				}
			}
		}
	}
}
