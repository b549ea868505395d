package lqn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// sameRT fails unless a session's solve carries exactly the bits Solve
// reports for the configuration the session's patches amount to.
func sameRT(t *testing.T, m *Model, what string, s *Session, built cluster.Config, d *cluster.Delta, load map[string]float64) {
	t.Helper()
	sol, err := m.Solve(built, d, load)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release(sol)
	rt, sat := s.Solve()
	for ai, name := range m.AppNames() {
		if math.Float64bits(rt[ai]) != math.Float64bits(sol.MeanRTSec[ai]) || sat[ai] != sol.Saturated[ai] {
			t.Fatalf("%s: app %s: session (%v, %v) != Solve (%v, %v)", what, name, rt[ai], sat[ai], sol.MeanRTSec[ai], sol.Saturated[ai])
		}
	}
}

// placedSlots lists the catalog VMs cfg places, in catalog order.
func placedSlots(m *Model, cfg cluster.Config) []int {
	var out []int
	for vi, id := range m.Catalog().VMIDs() {
		if cfg.Active(id) {
			out = append(out, vi)
		}
	}
	return out
}

// catalogOnly is cfg with everything a view cannot hold taken out: the VMs
// outside the catalog and on a host outside it, and that host.
func catalogOnly(m *Model, cfg cluster.Config) cluster.Config {
	out := cfg.Clone()
	for _, id := range m.slots[len(m.Catalog().VMIDs()):] {
		out.Unplace(id)
	}
	for _, id := range m.Catalog().VMIDs() {
		if p, ok := out.PlacementOf(id); ok && p.Host == ghost {
			out.Unplace(id)
		}
	}
	out.SetHostOn(ghost, false)
	out.SetHostFreq(ghost, 1)
	return out
}

// open loads cfg, which must lie inside the catalog, into a view and opens
// a session over it.
func open(t testing.TB, m *Model, cfg cluster.Config, load map[string]float64) *Session {
	t.Helper()
	var v cluster.View
	if !v.Load(m.Catalog(), cfg) {
		t.Fatal("configuration does not fit the catalog")
	}
	s, err := m.OpenView(&v, load)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// removeWithShift is the Perf-Pwr reduction's replica removal on both
// sides: the victim is unplaced and every placed VM behind it takes the host
// of the placed VM before it. It patches s and returns the configuration
// built the slow way.
func removeWithShift(m *Model, s *Session, cfg cluster.Config, victim int) cluster.Config {
	built := cfg.Clone()
	placed := placedSlots(m, cfg)
	k := slices.Index(placed, victim)
	for j := k + 1; j < len(placed); j++ {
		prev, _ := cfg.PlacementOf(m.slots[placed[j-1]])
		cur, _ := cfg.PlacementOf(m.slots[placed[j]])
		built.Place(m.slots[placed[j]], prev.Host, cur.CPUPct)
		h, _ := m.Catalog().HostIndex(prev.Host)
		s.Move(placed[j], s.Host(h))
	}
	built.Unplace(m.slots[victim])
	s.Unplace(victim)
	return built
}

// TestSessionMatchesSolve is the differential test of the load/compute
// seam: over the seeded inputs of TestSolveMatchesEvaluate (oversubscribed
// and downclocked hosts, dormant tiers, zero-rate applications, two zones),
// each cut down to what a view holds, a session opened from a view solves
// to the bits of Solve on the same configuration, every single-slot CPU
// patch and every removal-with-shift patch solves to the bits of Solve on
// the configuration it amounts to, Restore leaves the loaded state
// bit-equal, and a 50-step sequence of committed patches tracks the built
// configuration step by step.
func TestSessionMatchesSolve(t *testing.T) {
	for _, lab := range []struct{ nApps, zones int }{{2, 1}, {4, 1}, {2, 2}} {
		m := labModel(t, lab.nApps, lab.zones)
		rng := rand.New(rand.NewSource(int64(42 + 10*lab.nApps + lab.zones)))
		for i := 0; i < 300; i++ {
			cfg, load, _ := randomCase(rng, m)
			cfg = catalogOnly(m, cfg)
			what := fmt.Sprintf("%d apps, %d zones, case %d", lab.nApps, lab.zones, i)
			s := open(t, m, cfg, load)
			loaded := slices.Clone(s.sc.vms)
			sameRT(t, m, what+" as opened", s, cfg, nil, load)

			placed := placedSlots(m, cfg)
			for _, vi := range placed {
				id := m.slots[vi]
				p, _ := cfg.PlacementOf(id)
				d := cluster.Delta{VM: id, OldPlaced: true, Old: p, NewPlaced: true,
					New: cluster.Placement{Host: p.Host, CPUPct: p.CPUPct - 5}}
				s.SetCPU(vi, p.CPUPct-5)
				sameRT(t, m, fmt.Sprintf("%s, %s cut", what, id), s, cfg, &d, load)
				s.Restore()

				built := removeWithShift(m, s, cfg, vi)
				sameRT(t, m, fmt.Sprintf("%s, %s removed", what, id), s, built, nil, load)
				s.Restore()
			}
			if !slices.Equal(s.sc.vms, loaded) {
				t.Fatalf("%s: Restore left the loaded state changed", what)
			}
			sameRT(t, m, what+" after restores", s, cfg, nil, load)

			cur := cfg
			for step := 0; step < 50 && len(placed) > 0; step++ {
				vi := placed[rng.Intn(len(placed))]
				if len(placed) > 1 && rng.Intn(4) == 0 {
					cur = removeWithShift(m, s, cur, vi)
					placed = placedSlots(m, cur)
				} else {
					p, _ := cur.PlacementOf(m.slots[vi])
					cur = cur.Clone()
					cur.Place(m.slots[vi], p.Host, math.Max(5, p.CPUPct-5))
					s.SetCPU(vi, math.Max(5, p.CPUPct-5))
				}
				s.Commit()
				// A patch dropped after the commit must not disturb it.
				s.Unplace(placed[0])
				s.Restore()
				sameRT(t, m, fmt.Sprintf("%s, applied step %d", what, step), s, cur, nil, load)
			}
			s.Close()
		}
	}
}

// TestSessionSlots pins how a session is addressed: a VM by its catalog
// index and a host by its own, each carrying the loaded frequency; a patch
// names exactly that VM, and OpenView refuses a workload for an unknown
// application or a view over another catalog.
func TestSessionSlots(t *testing.T) {
	m := labModel(t, 2, 1)
	var empty cluster.View
	empty.Load(m.Catalog(), cluster.NewConfig())
	if _, err := m.OpenView(&empty, map[string]float64{"ghost": 1}); err == nil {
		t.Error("OpenView accepted a workload for an unknown application")
	}
	if _, err := m.OpenView(&cluster.View{}, nil); err == nil {
		t.Error("OpenView accepted a view over another catalog")
	}
	ids, hosts := m.Catalog().VMIDs(), m.Catalog().HostNames()
	cfg := cluster.NewConfig()
	for _, h := range hosts {
		cfg.SetHostOn(h, true)
	}
	cfg.SetHostFreq(hosts[1], 0.6)
	for i, id := range ids {
		cfg.Place(id, hosts[0], 30)
		if i == 3 {
			break
		}
	}
	load := map[string]float64{m.AppNames()[0]: 40}
	s := open(t, m, cfg, load)
	defer s.Close()
	if h := s.Host(1); h.idx != 1 || h.freq != 0.6 {
		t.Errorf("Host(1) = %+v, want slot 1 at 0.6", h)
	}
	s.SetCPU(3, 50)
	s.Move(2, s.Host(1))
	s.Unplace(1)
	built := cfg.Clone()
	built.Place(ids[3], hosts[0], 50)
	built.Place(ids[2], hosts[1], 30)
	built.Unplace(ids[1])
	sameRT(t, m, "after patches by catalog index", s, built, nil, load)
}

// TestSessionSolveAllocatesNothing pins the per-candidate cost the Perf-Pwr
// reduction relies on: patch, solve, restore without a single allocation.
func TestSessionSolveAllocatesNothing(t *testing.T) {
	m := labModel(t, 4, 1)
	cfg, load, _ := randomCase(rand.New(rand.NewSource(1)), m)
	cfg = catalogOnly(m, cfg)
	s := open(t, m, cfg, load)
	defer s.Close()
	vi := placedSlots(m, cfg)[0]
	n := testing.AllocsPerRun(100, func() {
		s.SetCPU(vi, 15)
		s.Solve()
		s.Restore()
	})
	if n != 0 {
		t.Errorf("patch + solve + restore allocates %v times, want 0", n)
	}
}

// BenchmarkSessionSolve is the kernel's own ledger row: what scoring one
// Perf-Pwr reduction candidate costs below the reduction. One session is
// opened on a lab's round-robin spread (every catalog replica at 80 % over
// all hosts, the reduction's initial state) and each op is a candidate: one
// VM's allocation cut, the response times solved, the patch dropped.
func BenchmarkSessionSolve(b *testing.B) {
	for _, nApps := range []int{2, 4} {
		b.Run(fmt.Sprintf("%dapps", nApps), func(b *testing.B) {
			m := labModel(b, nApps, 1)
			hosts := m.Catalog().HostNames()
			cfg := cluster.NewConfig()
			load := make(map[string]float64)
			for _, h := range hosts {
				cfg.SetHostOn(h, true)
			}
			for i, id := range m.Catalog().VMIDs() {
				cfg.Place(id, hosts[i%len(hosts)], 80)
			}
			for i, name := range m.AppNames() {
				load[name] = []float64{32, 57, 18, 44}[i%4]
			}
			s := open(b, m, cfg, load)
			defer s.Close()
			slots := placedSlots(m, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SetCPU(slots[i%len(slots)], 75)
				s.Solve()
				s.Restore()
			}
		})
	}
}
