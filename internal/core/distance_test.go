package core

import (
	"math"
	"testing"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// ConfigDistance is the reference the distancer is held to: §IV-B's distance
// between two built configurations, folded through their maps the way the
// search did before it measured children from a term vector — per-VM CPU
// differences weighted by the VM's relative size in the ideal configuration,
// plus placement and host power-state mismatch counts.
func ConfigDistance(cfg, ideal cluster.Config) float64 {
	idealVMs := ideal.ActiveVMs()
	var totalIdeal float64
	for _, id := range idealVMs {
		p, _ := ideal.PlacementOf(id)
		totalIdeal += p.CPUPct
	}
	var dist float64
	seen := make(map[cluster.VMID]bool, len(idealVMs))
	for _, id := range idealVMs {
		ip, _ := ideal.PlacementOf(id)
		seen[id] = true
		p, active := cfg.PlacementOf(id)
		if !active {
			// Dormant here, active in the ideal: one replica addition.
			dist += distPlaceWeight
			continue
		}
		if p.Host != ip.Host {
			// One migration.
			dist += distPlaceWeight
		}
		// CPU gap in steps, weighted by relative ideal size (§IV-B's
		// "2 times more weight to VMi than VMj" rule).
		w := 1.0
		if totalIdeal > 0 {
			w = ip.CPUPct / totalIdeal * float64(len(idealVMs))
		}
		dist += distCPUWeight * w * math.Abs(p.CPUPct-ip.CPUPct) / 10
	}
	// Active here, dormant in the ideal: one replica removal.
	for _, id := range cfg.ActiveVMs() {
		if !seen[id] {
			dist += distPlaceWeight
		}
	}
	// Host power-state mismatches: one power-cycling action each. Without
	// this term, starting a host toward the ideal would look like zero
	// progress and the search could never justify it.
	// Mismatches are counted first and folded in once: adding the two
	// weights in map-iteration order would perturb the distance's last
	// bits from run to run, and the search compares distances exactly.
	union := make(map[string]bool)
	for _, h := range cfg.ActiveHosts() {
		union[h] = true
	}
	for _, h := range ideal.ActiveHosts() {
		union[h] = true
	}
	var powerMismatch, freqMismatch int
	for h := range union {
		if cfg.HostOn(h) != ideal.HostOn(h) {
			powerMismatch++
		}
		if cfg.HostFreq(h) != ideal.HostFreq(h) {
			freqMismatch++
		}
	}
	dist += float64(powerMismatch)*distHostWeight + float64(freqMismatch)*distFreqWeight
	return dist
}

func TestConfigDistance(t *testing.T) {
	e := newEnv(t, 4, 1)
	if d := ConfigDistance(e.cfg, e.cfg); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
	other := e.cfg.Clone()
	p, _ := other.PlacementOf("rubis1-web-0")
	other.Place("rubis1-web-0", p.Host, p.CPUPct+20)
	d1 := ConfigDistance(other, e.cfg)
	if d1 <= 0 {
		t.Errorf("CPU-changed distance = %v, want > 0", d1)
	}
	moved := e.cfg.Clone()
	var dst string
	for _, h := range moved.ActiveHosts() {
		if h != p.Host {
			dst = h
			break
		}
	}
	moved.Place("rubis1-web-0", dst, p.CPUPct)
	d2 := ConfigDistance(moved, e.cfg)
	if d2 <= 0 {
		t.Errorf("moved distance = %v, want > 0", d2)
	}
}
