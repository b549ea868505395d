package cluster

import (
	"fmt"
	"testing"
)

// testCatalog builds a catalog resembling the paper's testbed: nHosts
// default hosts and, per app, 1 web VM, 2 app-tier VMs, 2 db VMs (the
// paper's maximum replication levels), with app/db tiers' extra replicas
// dormant-capable and web required. Every host gets the given DVFS levels.
func testCatalog(t *testing.T, nHosts, nApps int, dvfs ...float64) *Catalog {
	t.Helper()
	cfg := CatalogConfig{}
	for i := 0; i < nHosts; i++ {
		h := DefaultHostSpec(fmt.Sprintf("host%d", i))
		h.DVFSLevels = dvfs
		cfg.Hosts = append(cfg.Hosts, h)
	}
	for a := 0; a < nApps; a++ {
		app := fmt.Sprintf("rubis%d", a+1)
		cfg.VMs = append(cfg.VMs,
			VMSpec{ID: VMID(app + "-web-0"), App: app, Tier: "web", Replica: 0, MemoryMB: 200},
			VMSpec{ID: VMID(app + "-app-0"), App: app, Tier: "app", Replica: 0, MemoryMB: 200},
			VMSpec{ID: VMID(app + "-app-1"), App: app, Tier: "app", Replica: 1, MemoryMB: 200},
			VMSpec{ID: VMID(app + "-db-0"), App: app, Tier: "db", Replica: 0, MemoryMB: 200},
			VMSpec{ID: VMID(app + "-db-1"), App: app, Tier: "db", Replica: 1, MemoryMB: 200},
		)
	}
	cat, err := NewCatalog(cfg)
	if err != nil {
		t.Fatalf("NewCatalog: %v", err)
	}
	return cat
}

// baseConfig places one replica of each tier of each app round-robin over
// the first nHostsOn hosts at the given CPU allocation.
func baseConfig(t *testing.T, cat *Catalog, nHostsOn int, cpuPct float64) Config {
	t.Helper()
	cfg := NewConfig()
	hosts := cat.HostNames()
	if nHostsOn > len(hosts) {
		t.Fatalf("nHostsOn %d > hosts %d", nHostsOn, len(hosts))
	}
	for i := 0; i < nHostsOn; i++ {
		cfg.SetHostOn(hosts[i], true)
	}
	i := 0
	for _, k := range cat.Tiers() {
		ids := cat.TierVMs(k)
		cfg.Place(ids[0], hosts[i%nHostsOn], cpuPct)
		i++
	}
	if !cfg.IsCandidate(cat) {
		t.Fatalf("baseConfig is not a candidate: %v", cfg.Validate(cat))
	}
	return cfg
}
