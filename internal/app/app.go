// Package app models multi-tier distributed applications: tiers, replica
// limits, transaction types with per-tier CPU demands, and transaction
// mixes. It also provides the RUBiS-like "browsing only" application used
// throughout the paper's evaluation and helpers to derive a cluster.Catalog
// from a set of applications.
package app

import (
	"fmt"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
)

// Standard tier names for three-tier web applications.
const (
	TierWeb = "web"
	TierApp = "app"
	TierDB  = "db"
)

// TierSpec describes one tier of an application.
type TierSpec struct {
	// Name identifies the tier (e.g. "web").
	Name string
	// MaxReplicas bounds the replication level; the catalog contains this
	// many VMs for the tier (active plus dormant).
	MaxReplicas int
	// VMMemoryMB is the fixed memory requirement of each replica VM.
	VMMemoryMB int
}

// TxnSpec describes one transaction type: its relative frequency in the
// workload mix and the total CPU demand it places on each tier per request,
// at reference host speed with 100% CPU allocation.
type TxnSpec struct {
	// Name identifies the transaction (e.g. "browse-items").
	Name string
	// Weight is the relative frequency in the mix; weights are normalized.
	Weight float64
	// DemandMS maps tier name to total CPU milliseconds consumed per
	// request of this type on one replica of that tier.
	DemandMS map[string]float64
	// LatencyMS is the CPU-free portion of the response time in
	// milliseconds — disk and network waits during which the request holds
	// no CPU. For RUBiS's browse mix this dominates the response time,
	// which is why the 400 ms operating point coexists with moderate CPU
	// utilization.
	LatencyMS float64
}

// Spec is a complete application model.
type Spec struct {
	// Name identifies the application (e.g. "rubis1").
	Name string
	// Tiers lists the tiers in call order (front to back).
	Tiers []TierSpec
	// Txns lists the transaction types of the workload mix.
	Txns []TxnSpec
	// TargetRT is the response-time objective (400 ms in the paper).
	TargetRT time.Duration
	// Dom0OverheadMS is the CPU milliseconds consumed in the host's Dom-0
	// per tier visit, modeling Xen's I/O virtualization overhead.
	Dom0OverheadMS float64
}

// Validate checks structural consistency.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("app: spec with empty name")
	}
	if len(s.Tiers) == 0 {
		return fmt.Errorf("app %s: no tiers", s.Name)
	}
	if len(s.Txns) == 0 {
		return fmt.Errorf("app %s: no transactions", s.Name)
	}
	seen := make(map[string]bool, len(s.Tiers))
	for _, t := range s.Tiers {
		if t.Name == "" {
			return fmt.Errorf("app %s: tier with empty name", s.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("app %s: duplicate tier %q", s.Name, t.Name)
		}
		seen[t.Name] = true
		if t.MaxReplicas <= 0 {
			return fmt.Errorf("app %s: tier %q has MaxReplicas %d", s.Name, t.Name, t.MaxReplicas)
		}
		if t.VMMemoryMB <= 0 {
			return fmt.Errorf("app %s: tier %q has VM memory %d", s.Name, t.Name, t.VMMemoryMB)
		}
	}
	var totalWeight float64
	for _, txn := range s.Txns {
		if txn.Weight < 0 {
			return fmt.Errorf("app %s: transaction %q has negative weight", s.Name, txn.Name)
		}
		if txn.LatencyMS < 0 {
			return fmt.Errorf("app %s: transaction %q has negative latency", s.Name, txn.Name)
		}
		totalWeight += txn.Weight
		for tier := range txn.DemandMS {
			if !seen[tier] {
				return fmt.Errorf("app %s: transaction %q references unknown tier %q", s.Name, txn.Name, tier)
			}
		}
	}
	if totalWeight <= 0 {
		return fmt.Errorf("app %s: transaction mix has zero total weight", s.Name)
	}
	if s.TargetRT <= 0 {
		return fmt.Errorf("app %s: non-positive target response time", s.Name)
	}
	return nil
}

// Tier returns the tier spec by name.
func (s *Spec) Tier(name string) (TierSpec, bool) {
	for _, t := range s.Tiers {
		if t.Name == name {
			return t, true
		}
	}
	return TierSpec{}, false
}

// MixProbabilities returns the normalized transaction mix, aligned with
// s.Txns.
func (s *Spec) MixProbabilities() []float64 {
	total := s.mixTotal()
	probs := make([]float64, len(s.Txns))
	for i, txn := range s.Txns {
		probs[i] = txn.Weight / total
	}
	return probs
}

// mixTotal is the denominator of the normalized transaction mix.
func (s *Spec) mixTotal() float64 {
	var total float64
	for _, txn := range s.Txns {
		total += txn.Weight
	}
	return total
}

// MeanDemandMS returns the mix-weighted mean CPU demand per request on the
// given tier, in milliseconds at reference speed. It folds the mix in place
// (the same terms in the same order as a MixProbabilities slice would give)
// because the Perf-Pwr optimizer calls it per VM.
func (s *Spec) MeanDemandMS(tier string) float64 {
	total := s.mixTotal()
	var demand float64
	for _, txn := range s.Txns {
		demand += txn.Weight / total * txn.DemandMS[tier]
	}
	return demand
}

// MeanLatencyMS returns the mix-weighted mean CPU-free latency per request
// in milliseconds.
func (s *Spec) MeanLatencyMS() float64 {
	total := s.mixTotal()
	var lat float64
	for _, txn := range s.Txns {
		lat += txn.Weight / total * txn.LatencyMS
	}
	return lat
}

// ScaleDemands multiplies every transaction's per-tier demand by factor.
// It is used by model calibration to pin the default operating point.
// CPU-free latencies are left untouched.
func (s *Spec) ScaleDemands(factor float64) {
	for i := range s.Txns {
		scaled := make(map[string]float64, len(s.Txns[i].DemandMS))
		for tier, d := range s.Txns[i].DemandMS {
			scaled[tier] = d * factor
		}
		s.Txns[i].DemandMS = scaled
	}
}

// Clone returns a deep copy of the spec, optionally renamed. Cloning lets
// experiments instantiate several identical applications (RUBiS-1..4).
func (s *Spec) Clone(name string) *Spec {
	n := &Spec{
		Name:           name,
		Tiers:          make([]TierSpec, len(s.Tiers)),
		Txns:           make([]TxnSpec, len(s.Txns)),
		TargetRT:       s.TargetRT,
		Dom0OverheadMS: s.Dom0OverheadMS,
	}
	copy(n.Tiers, s.Tiers)
	for i, txn := range s.Txns {
		demands := make(map[string]float64, len(txn.DemandMS))
		for tier, d := range txn.DemandMS {
			demands[tier] = d
		}
		n.Txns[i] = TxnSpec{Name: txn.Name, Weight: txn.Weight, DemandMS: demands, LatencyMS: txn.LatencyMS}
	}
	return n
}

// VMIDFor returns the canonical VM identifier for a tier replica of this
// application, shared with catalogs built by BuildCatalog.
func (s *Spec) VMIDFor(tier string, replica int) cluster.VMID {
	return cluster.VMID(fmt.Sprintf("%s-%s-%d", s.Name, tier, replica))
}

// RUBiS returns the paper's test application: a three-tier servlet RUBiS
// running the "browsing only" mix of 9 read-only transaction types. Demands
// are relative; calibrate them against a performance model (see lqn.Calibrate)
// so that the default configuration — every tier at 40% CPU, 50 req/s —
// meets the 400 ms target response time, mirroring how the paper derived
// its target.
//
// Replication limits follow §V-A: Apache is never replicated; Tomcat and
// MySQL replicate up to 2.
func RUBiS(name string) *Spec {
	// Relative per-tier demands per transaction (milliseconds at reference
	// speed). The browse mix leans on the database; search transactions are
	// the most app/db intensive, the home page is nearly static.
	txns := []TxnSpec{
		{Name: "home", Weight: 8, DemandMS: map[string]float64{TierWeb: 1.6, TierApp: 1.2, TierDB: 0.4}, LatencyMS: 18},
		{Name: "browse", Weight: 12, DemandMS: map[string]float64{TierWeb: 1.2, TierApp: 2.4, TierDB: 1.6}, LatencyMS: 39},
		{Name: "browse-categories", Weight: 14, DemandMS: map[string]float64{TierWeb: 1.2, TierApp: 3.2, TierDB: 3.0}, LatencyMS: 51},
		{Name: "browse-regions", Weight: 8, DemandMS: map[string]float64{TierWeb: 1.2, TierApp: 3.0, TierDB: 2.6}, LatencyMS: 48},
		{Name: "browse-items-in-category", Weight: 18, DemandMS: map[string]float64{TierWeb: 1.4, TierApp: 4.4, TierDB: 4.6}, LatencyMS: 62},
		{Name: "browse-items-in-region", Weight: 10, DemandMS: map[string]float64{TierWeb: 1.4, TierApp: 4.2, TierDB: 4.4}, LatencyMS: 61},
		{Name: "view-item", Weight: 16, DemandMS: map[string]float64{TierWeb: 1.4, TierApp: 3.6, TierDB: 3.4}, LatencyMS: 54},
		{Name: "view-user-info", Weight: 6, DemandMS: map[string]float64{TierWeb: 1.2, TierApp: 3.0, TierDB: 3.2}, LatencyMS: 45},
		{Name: "view-bid-history", Weight: 8, DemandMS: map[string]float64{TierWeb: 1.4, TierApp: 3.8, TierDB: 4.2}, LatencyMS: 56},
	}
	return &Spec{
		Name: name,
		Tiers: []TierSpec{
			{Name: TierWeb, MaxReplicas: 1, VMMemoryMB: 200},
			{Name: TierApp, MaxReplicas: 2, VMMemoryMB: 200},
			{Name: TierDB, MaxReplicas: 2, VMMemoryMB: 200},
		},
		Txns:           txns,
		TargetRT:       400 * time.Millisecond,
		Dom0OverheadMS: 0.3,
	}
}

// BuildCatalog derives a cluster catalog from host specs and application
// specs: one VM per tier replica (active ones chosen later by configs).
func BuildCatalog(hosts []cluster.HostSpec, apps []*Spec) (*cluster.Catalog, error) {
	cfg := cluster.CatalogConfig{Hosts: hosts}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, fmt.Errorf("app: building catalog: %w", err)
		}
		for _, t := range a.Tiers {
			for r := 0; r < t.MaxReplicas; r++ {
				cfg.VMs = append(cfg.VMs, cluster.VMSpec{
					ID:       a.VMIDFor(t.Name, r),
					App:      a.Name,
					Tier:     t.Name,
					Replica:  r,
					MemoryMB: t.VMMemoryMB,
				})
			}
		}
	}
	cat, err := cluster.NewCatalog(cfg)
	if err != nil {
		return nil, fmt.Errorf("app: building catalog: %w", err)
	}
	return cat, nil
}

// DefaultConfig places one replica of every tier of every application
// round-robin across the first n hosts at the given CPU allocation, powering
// exactly those hosts on. It mirrors the paper's "default configuration"
// (all tiers at 40%).
func DefaultConfig(cat *cluster.Catalog, apps []*Spec, nHosts int, cpuPct float64) (cluster.Config, error) {
	hosts := cat.HostNames()
	if nHosts <= 0 || nHosts > len(hosts) {
		return cluster.Config{}, fmt.Errorf("app: DefaultConfig with %d hosts, have %d", nHosts, len(hosts))
	}
	cfg := cluster.NewConfig()
	for i := 0; i < nHosts; i++ {
		cfg.SetHostOn(hosts[i], true)
	}
	i := 0
	for _, a := range apps {
		for _, t := range a.Tiers {
			// Greedily pick the host with the most free capacity among the
			// powered-on set, keeping the default placement feasible.
			best := ""
			var bestFree float64
			for j := 0; j < nHosts; j++ {
				h := hosts[(i+j)%nHosts]
				spec, _ := cat.Host(h)
				free := spec.UsableCPUPct - cfg.AllocatedCPU(h)
				if free >= cpuPct && len(cfg.VMsOnHost(h)) < spec.MaxVMs && free > bestFree {
					best, bestFree = h, free
				}
			}
			if best == "" {
				return cluster.Config{}, fmt.Errorf("app: DefaultConfig cannot place %s/%s at %.0f%% on %d hosts", a.Name, t.Name, cpuPct, nHosts)
			}
			cfg.Place(a.VMIDFor(t.Name, 0), best, cpuPct)
			i++
		}
	}
	if vs := cfg.Validate(cat); len(vs) > 0 {
		return cluster.Config{}, fmt.Errorf("app: DefaultConfig invalid: %v", vs[0])
	}
	return cfg, nil
}
