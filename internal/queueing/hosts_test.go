package queueing

import (
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

func hostOpsSystem(t *testing.T) *System {
	t.Helper()
	a := app.RUBiS("a")
	cat, err := app.BuildCatalog([]cluster.HostSpec{
		cluster.DefaultHostSpec("h0"), cluster.DefaultHostSpec("h1"), cluster.DefaultHostSpec("h2"),
	}, []*app.Spec{a})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.NewConfig()
	cfg.SetHostOn("h0", true)
	cfg.SetHostOn("h1", true)
	cfg.Place("a-web-0", "h0", 30)
	cfg.Place("a-app-0", "h0", 30)
	cfg.Place("a-db-0", "h1", 30)
	sys, err := New(cat, []*app.Spec{a}, cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAddRemoveHost(t *testing.T) {
	sys := hostOpsSystem(t)

	if err := sys.AddHost("h2"); err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	if err := sys.AddHost("h2"); err == nil {
		t.Error("double AddHost accepted")
	}
	if err := sys.AddHost("ghost"); err == nil {
		t.Error("unknown host accepted")
	}

	// A VM can now be placed on the new host and serve traffic.
	if err := sys.AddVM("a-db-1", "h2", 40); err != nil {
		t.Fatalf("AddVM on new host: %v", err)
	}
	if err := sys.SetRate("a", 30); err != nil {
		t.Fatal(err)
	}
	sys.ResetWindow()
	if err := sys.Run(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	w := sys.Snapshot()
	if w.Apps["a"].Completed == 0 {
		t.Fatal("no completions")
	}
	if w.HostUtil["h2"] <= 0 {
		t.Error("new host shows no utilization despite hosting a db replica")
	}

	// Removing a host with a VM fails; after evicting the VM it succeeds.
	if err := sys.RemoveHost("h2"); err == nil {
		t.Error("RemoveHost with resident VM accepted")
	}
	if err := sys.RemoveVM("a-db-1"); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveHost("h2"); err != nil {
		t.Fatalf("RemoveHost after eviction: %v", err)
	}
	if err := sys.RemoveHost("h2"); err == nil {
		t.Error("double RemoveHost accepted")
	}
}

// TestRestartedHostRunsAtFullFrequency power-cycles a host the DES had
// slowed by DVFS and loaded with Dom-0 background work: it comes back at
// its full Dom-0 share, as a host boots at its nominal frequency.
func TestRestartedHostRunsAtFullFrequency(t *testing.T) {
	sys := hostOpsSystem(t)
	if err := sys.AddHost("h2"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetHostFreq("h2", 0.6, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetDom0Background("h2", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveHost("h2"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddHost("h2"); err != nil {
		t.Fatal(err)
	}
	if got := sys.dom0["h2"].Rate(); got != cluster.Dom0CPUShare || sys.dom0BG["h2"] != 0 {
		t.Errorf("restarted Dom-0 rate %v with background %v, want %v with none", got, sys.dom0BG["h2"], cluster.Dom0CPUShare)
	}
}

// TestRemoveVMWhileRequestsWaitAtDom0 removes a replica while requests
// routed to it still queue at its host's Dom-0: they are dropped, as
// RemoveVM's in-flight requests are, and the system keeps serving through
// the other replica.
func TestRemoveVMWhileRequestsWaitAtDom0(t *testing.T) {
	sys := hostOpsSystem(t)
	if err := sys.AddVM("a-app-1", "h1", 30); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetRate("a", 400); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(1007 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveVM("a-app-1"); err != nil {
		t.Fatal(err)
	}
	sys.ResetWindow()
	if err := sys.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sys.Snapshot().Apps["a"].Completed == 0 {
		t.Error("no completions after the replica was removed")
	}
}

func TestAddVMValidation(t *testing.T) {
	sys := hostOpsSystem(t)
	if err := sys.AddVM("a-web-0", "h0", 30); err == nil {
		t.Error("adding an already-active VM accepted")
	}
	if err := sys.AddVM("a-db-1", "h2", 30); err == nil {
		t.Error("adding to inactive host accepted")
	}
	if err := sys.RemoveVM("ghost"); err == nil {
		t.Error("removing unknown VM accepted")
	}
}

func TestSetHostFreqValidation(t *testing.T) {
	sys := hostOpsSystem(t)
	allocs := map[cluster.VMID]float64{"a-web-0": 30, "a-app-0": 30}
	if err := sys.SetHostFreq("h0", 0.6, allocs); err != nil {
		t.Fatalf("SetHostFreq: %v", err)
	}
	if got := sys.vmStations["a-web-0"].Rate(); got != 0.18 {
		t.Errorf("web rate after downclock = %v, want 0.18", got)
	}
	if err := sys.SetHostFreq("ghost", 0.6, nil); err == nil {
		t.Error("unknown host accepted")
	}
	if err := sys.SetHostFreq("h0", 0, nil); err == nil {
		t.Error("zero frequency accepted")
	}
	if err := sys.SetHostFreq("h0", 1.5, nil); err == nil {
		t.Error("super-nominal frequency accepted")
	}
	// Restoring nominal restores full rates.
	if err := sys.SetHostFreq("h0", 1.0, allocs); err != nil {
		t.Fatal(err)
	}
	if got := sys.vmStations["a-app-0"].Rate(); got != 0.30 {
		t.Errorf("app rate after restore = %v, want 0.30", got)
	}
}

// TestOperationsKeepHostFrequency: on a host DVFS slowed to 0.6, every
// operation that sets a station's rate sets it at that frequency, as the LQN
// model scales it — a replica added, a CPU cap changed, Dom-0 background
// work set, a VM migrated onto the host — and a VM migrated off it runs at
// its destination's.
func TestOperationsKeepHostFrequency(t *testing.T) {
	const f = 0.6
	vm := func(pct float64) float64 { return pct / 100 * f }
	for _, c := range []struct {
		op   string
		do   func(*System) error
		rate func(*System) float64
		want float64
	}{
		{"add-vm", func(s *System) error { return s.AddVM("a-db-1", "h1", 40) },
			func(s *System) float64 { return s.vmStations["a-db-1"].Rate() }, vm(40)},
		{"set-vm-rate", func(s *System) error { return s.SetVMRate("a-db-0", 50) },
			func(s *System) float64 { return s.vmStations["a-db-0"].Rate() }, vm(50)},
		{"dom0-background", func(s *System) error { return s.SetDom0Background("h1", 0.5) },
			func(s *System) float64 { return s.dom0["h1"].Rate() }, cluster.Dom0CPUShare * f * (1 - 0.5)},
		{"move-vm-on", func(s *System) error { return s.MoveVM("a-web-0", "h1") },
			func(s *System) float64 { return s.vmStations["a-web-0"].Rate() }, vm(30)},
		{"move-vm-off", func(s *System) error { return s.MoveVM("a-db-0", "h0") },
			func(s *System) float64 { return s.vmStations["a-db-0"].Rate() }, 30.0 / 100},
		{"set-host-freq", func(s *System) error { return nil },
			func(s *System) float64 { return s.vmStations["a-db-0"].Rate() }, vm(30)},
	} {
		sys := hostOpsSystem(t)
		if err := sys.SetHostFreq("h1", f, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.do(sys); err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if got := c.rate(sys); got != c.want {
			t.Errorf("%s on a host at %v: rate %v, want %v", c.op, f, got, c.want)
		}
	}
}
