package core

import (
	"testing"

	"github.com/mistralcloud/mistral/internal/cluster"
)

func TestPerfPwrSubsetRepacksOnlyScopedHosts(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 40)
	subset := e.cat.HostNames()[:2]
	inSubset := map[string]bool{subset[0]: true, subset[1]: true}

	ideal, err := PerfPwrSubset(e.eval, e.cfg, w, subset)
	if err != nil {
		t.Fatal(err)
	}
	if !ideal.Config.IsCandidate(e.cat) {
		t.Fatalf("subset ideal invalid: %v", ideal.Config.Validate(e.cat))
	}
	// VMs outside the subset keep their exact placements; VMs inside may
	// move but only within the subset.
	for _, id := range e.cfg.ActiveVMs() {
		p0, _ := e.cfg.PlacementOf(id)
		p1, ok := ideal.Config.PlacementOf(id)
		if !ok {
			t.Fatalf("VM %s vanished from subset ideal", id)
		}
		if !inSubset[p0.Host] {
			if p1 != p0 {
				t.Errorf("out-of-scope VM %s changed: %+v -> %+v", id, p0, p1)
			}
			continue
		}
		if !inSubset[p1.Host] {
			t.Errorf("in-scope VM %s escaped the subset to %s", id, p1.Host)
		}
	}
	// Host power states are preserved: subset controllers cannot cycle
	// hosts.
	for _, h := range e.cat.HostNames() {
		if ideal.Config.HostOn(h) != e.cfg.HostOn(h) {
			t.Errorf("host %s power state changed by subset ideal", h)
		}
	}
	// No replication changes.
	if got, want := len(ideal.Config.ActiveVMs()), len(e.cfg.ActiveVMs()); got != want {
		t.Errorf("replication changed: %d VMs, want %d", got, want)
	}
}

func TestPerfPwrSubsetEmptyScope(t *testing.T) {
	e := newEnv(t, 4, 1)
	w := rates(e, 30)
	// A subset containing only powered-off hosts: nothing to manage, the
	// ideal is the current configuration.
	var offHosts []string
	for _, h := range e.cat.HostNames() {
		if !e.cfg.HostOn(h) {
			offHosts = append(offHosts, h)
		}
	}
	if len(offHosts) == 0 {
		t.Skip("all hosts on in this environment")
	}
	ideal, err := PerfPwrSubset(e.eval, e.cfg, w, offHosts)
	if err != nil {
		t.Fatal(err)
	}
	if !ideal.Config.Equal(e.cfg) {
		t.Error("empty-scope ideal differs from the current configuration")
	}
}

func TestVMZonePinsOf(t *testing.T) {
	mk := func(name, zone string) cluster.HostSpec {
		h := cluster.DefaultHostSpec(name)
		h.Zone = zone
		return h
	}
	cat, err := cluster.NewCatalog(cluster.CatalogConfig{
		Hosts: []cluster.HostSpec{mk("e0", "east"), mk("w0", "west")},
		VMs: []cluster.VMSpec{
			{ID: "a-web-0", App: "a", Tier: "web", MemoryMB: 200},
			{ID: "a-db-0", App: "a", Tier: "db", MemoryMB: 200},
			{ID: "a-db-1", App: "a", Tier: "db", Replica: 1, MemoryMB: 200},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.NewConfig()
	cfg.SetHostOn("e0", true)
	cfg.SetHostOn("w0", true)
	cfg.Place("a-web-0", "e0", 40)
	cfg.Place("a-db-0", "w0", 40)

	pins := VMZonePinsOf(cat, cfg)
	if pins["a-web-0"] != "east" || pins["a-db-0"] != "west" {
		t.Errorf("pins = %v", pins)
	}
	if _, pinned := pins["a-db-1"]; pinned {
		t.Error("dormant replica pinned")
	}
}

// TestPerfPwrRefusesForeignScope: an arm's state is dense over the catalog,
// so a scope naming a host or a VM the catalog does not know — a packing
// target, a managed VM, anything held fixed — is refused with an error
// instead of being packed on the part that fits.
func TestPerfPwrRefusesForeignScope(t *testing.T) {
	e := newEnv(t, 4, 2)
	w := rates(e, 30)
	if _, err := PerfPwr(e.eval, w, PerfPwrOptions{Hosts: []string{"h0", "ghost"}}); err == nil {
		t.Error("PerfPwr packed onto a host outside the catalog")
	}
	h0 := e.cat.HostNames()[0]
	fixedGhost := e.cfg.Clone()
	fixedGhost.SetHostOn("ghost", true)
	fixedGhost.Place("stranger", "ghost", 40)
	if _, err := PerfPwrSubset(e.eval, fixedGhost, w, []string{h0}); err == nil {
		t.Error("PerfPwrSubset held a VM outside the catalog fixed")
	}
	managedStranger := e.cfg.Clone()
	managedStranger.Place("stranger", h0, 20)
	if _, err := PerfPwrSubset(e.eval, managedStranger, w, []string{h0}); err == nil {
		t.Error("PerfPwrSubset managed a VM outside the catalog")
	}
	if _, err := PerfPwrSubset(e.eval, e.cfg, w, []string{h0}); err != nil {
		t.Errorf("the same subset without them: %v", err)
	}
}
