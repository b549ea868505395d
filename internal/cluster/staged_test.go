package cluster

import (
	"math/rand/v2"
	"testing"
)

// TestStagedRendersReference holds the named forms of every staged action to
// the map-reading Stage kept in reference_test.go: on the random
// configurations of the three labs (DVFS, two zones, wild and near-candidate
// draws) under every action space, the action and the delta rendered from
// each Expand output equal the reference's filled Action and Delta field for
// field, and stripping the derived fields gives back the proposal.
func TestStagedRendersReference(t *testing.T) {
	for _, lab := range diffLabs(t) {
		lab := lab
		t.Run(lab.name, func(t *testing.T) {
			cat := lab.cat
			rng := rand.New(rand.NewPCG(23, uint64(len(cat.VMIDs()))))
			var v View
			var staged []Staged
			kinds := map[ActionKind]int{}
			for trial := 0; trial < 120; trial++ {
				cfg := randomConfig(cat, rng)
				if !v.Load(cat, cfg) {
					t.Fatalf("trial %d: %s does not fit the catalog", trial, cfg)
				}
				for si, space := range lab.spaces {
					ref := referenceEnumerate(cat, cfg, space)
					moves := space.Resolve(cat)
					staged = v.Expand(&moves, staged[:0])
					if len(staged) != len(ref) {
						t.Fatalf("trial %d space %d: Expand yields %d actions, reference %d", trial, si, len(staged), len(ref))
					}
					for i, proposal := range ref {
						wantA, wantD, err := referenceStage(cat, cfg, proposal)
						if err != nil {
							t.Fatalf("trial %d: reference refuses its own action %s: %v", trial, proposal, err)
						}
						s := &staged[i]
						gotA, gotD := s.Action(cat), s.Delta(cat)
						if gotA != wantA {
							t.Fatalf("trial %d space %d child %d: action\n got %+v\nwant %+v", trial, si, i, gotA, wantA)
						}
						if gotD != wantD {
							t.Fatalf("trial %d space %d child %d (%s): delta\n got %+v\nwant %+v", trial, si, i, wantA, gotD, wantD)
						}
						if got := unfilled(gotA); got != proposal {
							t.Fatalf("trial %d space %d child %d: unfilled\n got %+v\nwant %+v", trial, si, i, got, proposal)
						}
						kinds[wantA.Kind]++
					}
				}
			}
			for k := ActionIncreaseCPU; k <= ActionWANMigrate; k++ {
				wanted := k != ActionSetDVFS && k != ActionWANMigrate || lab.name == "2apps-dvfs-2zones"
				if wanted && kinds[k] == 0 {
					t.Errorf("fixture never staged a %s", k)
				}
			}
		})
	}
}

// TestViewFingerprintWithKeepsBits pins the identity the search's dedup, the
// evaluator memo and the provenance records rest on: for every staged action
// the fingerprint folded from the view equals Config.FingerprintWith on the
// named delta and the from-scratch fold of the applied configuration — also
// for a set-dvfs back to nominal (the entry leaves hostFreq), from a level
// the host does not support, and on a host with no hostFreq entry.
func TestViewFingerprintWithKeepsBits(t *testing.T) {
	for _, lab := range diffLabs(t) {
		lab := lab
		t.Run(lab.name, func(t *testing.T) {
			cat := lab.cat
			rng := rand.New(rand.NewPCG(31, uint64(len(cat.VMIDs()))))
			var v View
			var staged []Staged
			toNominal, fromNominal, children := 0, 0, 0
			for trial := 0; trial < 120; trial++ {
				cfg := randomConfig(cat, rng)
				if !v.Load(cat, cfg) {
					t.Fatalf("trial %d: %s does not fit the catalog", trial, cfg)
				}
				for _, space := range lab.spaces {
					moves := space.Resolve(cat)
					staged = v.Expand(&moves, staged[:0])
					for i := range staged {
						s := &staged[i]
						a, d := s.Action(cat), s.Delta(cat)
						built := cfg.Clone()
						built.ApplyDelta(d)
						want := built.RecomputeFingerprint()
						if got := v.FingerprintWith(cfg.Fingerprint(), s); got != want {
							t.Fatalf("trial %d action %s: view fingerprint %v, applied configuration %v", trial, a, got, want)
						}
						if got := cfg.FingerprintWith(d); got != want {
							t.Fatalf("trial %d action %s: Config.FingerprintWith %v, applied configuration %v", trial, a, got, want)
						}
						if a.Kind == ActionSetDVFS {
							if a.Freq == 1 {
								toNominal++
							}
							if cfg.HostFreq(a.Host) == 1 {
								fromNominal++
							}
						}
						children++
					}
				}
			}
			if children < 1000 {
				t.Fatalf("only %d children", children)
			}
			if lab.name == "2apps-dvfs-2zones" && (toNominal == 0 || fromNominal == 0) {
				t.Fatalf("fixture too weak: %d set-dvfs to nominal, %d from a host without an entry", toNominal, fromNominal)
			}
		})
	}
}
