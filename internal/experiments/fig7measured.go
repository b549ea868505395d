package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/cost"
	"github.com/mistralcloud/mistral/internal/sim"
	"github.com/mistralcloud/mistral/internal/stats"
	"github.com/mistralcloud/mistral/internal/testbed"
	"github.com/mistralcloud/mistral/internal/workload"
)

// MigrationDurationModel estimates a live migration's duration from first
// principles on the paper's testbed fabric: the VM's memory is pushed over
// a 100 Mbps segment in iterative pre-copy rounds whose count grows with
// the page-dirtying rate, i.e. with workload.
func MigrationDurationModel(memMB int, sessions float64) time.Duration {
	base := float64(memMB) * 8 / 100 // seconds at wire speed
	dirty := 0.8 * stats.Clamp(sessions/800, 0, 1)
	rounds := 1 / (1 - dirty)
	return time.Duration(base * rounds * float64(time.Second))
}

// campaignTable builds the cost table used while *measuring* costs: action
// durations from the duration model (deltas are emergent in request-level
// mode and therefore zeroed here).
func campaignTable(memMB int) *cost.Table {
	t := cost.NewTable()
	for s := 100.0; s <= 800; s += 100 {
		d := MigrationDurationModel(memMB, s)
		for _, tier := range []string{"web", "app", "db"} {
			t.Add(cost.Key{Kind: cluster.ActionMigrate, Tier: tier}, cost.Entry{Sessions: s, Duration: d})
			t.Add(cost.Key{Kind: cluster.ActionAddReplica, Tier: tier}, cost.Entry{Sessions: s, Duration: d + 10*time.Second})
			t.Add(cost.Key{Kind: cluster.ActionRemoveReplica, Tier: tier}, cost.Entry{Sessions: s, Duration: d})
		}
	}
	return t
}

// Fig7MeasuredCampaign reruns the paper's offline cost-measurement
// protocol (§III-C) against the request-level testbed: a target and a
// background application with all replicas at 40% CPU, random VM
// placements, a 1-minute warm-up, baseline measurement, one adaptation
// action, and measurement of its duration and response-time/power deltas.
// Results are averaged across trials and indexed by workload (100, 200, 400
// and 800 sessions), yielding a measured counterpart to the Fig. 7 tables.
func Fig7MeasuredCampaign(seed uint64, trials int) ([]Fig7Row, error) {
	if trials <= 0 {
		trials = 3
	}
	tiers := []struct{ tier, label string }{
		{"db", "Migration (MySQL)"},
		{"app", "Migration (Tomcat)"},
		{"web", "Migration (Apache)"},
	}
	rng := sim.NewRNG(seed, 0xca3b)
	var rows []Fig7Row
	for _, sessions := range []float64{100, 200, 400, 800} {
		rate := workload.RateForSessions(sessions)
		for _, tc := range tiers {
			var dW, dRT, dur stats.Welford
			for trial := 0; trial < trials; trial++ {
				m, err := measureOneAction(rng.Split(), cluster.ActionMigrate, tc.tier, rate)
				if err != nil {
					return nil, fmt.Errorf("experiments: campaign %s at %v sessions: %w", tc.tier, sessions, err)
				}
				dW.Add(m.dWPct)
				dRT.Add(m.dRT)
				dur.Add(m.duration.Seconds())
			}
			rows = append(rows, Fig7Row{
				Action:       tc.label,
				Sessions:     sessions,
				DeltaWattPct: dW.Mean(),
				DeltaRTMS:    dRT.Mean() * 1000,
				DelayMS:      dur.Mean() * 1000,
			})
		}
	}
	return rows, nil
}

// measurement is one campaign trial's outcome.
type measurement struct {
	dWPct    float64 // power delta, percent of baseline
	dWatts   float64 // power delta, absolute
	dRT      float64 // target app response-time delta, seconds
	dRTCoLoc float64 // background app response-time delta, seconds
	duration time.Duration
}

// measureOneAction runs one trial of the campaign: random placement,
// warm-up, baseline window, one adaptation action, action window.
func measureOneAction(rng *sim.RNG, kind cluster.ActionKind, tier string, rate float64) (measurement, error) {
	lab, err := NewLab(LabOptions{NumApps: 2, NumHosts: 4, Seed: rng.Uint64()})
	if err != nil {
		return measurement{}, err
	}
	cfg, vm, dst, err := randomCampaignPlacement(lab, rng, tier)
	if err != nil {
		return measurement{}, err
	}
	action := cluster.Action{Kind: kind, VM: vm, Host: dst}
	switch kind {
	case cluster.ActionMigrate:
	case cluster.ActionAddReplica:
		// Add the dormant second replica of the tier to the destination.
		action.VM = cluster.VMID("rubis1-" + tier + "-1")
	case cluster.ActionRemoveReplica:
		// Activate the second replica first so there is one to remove.
		second := cluster.VMID("rubis1-" + tier + "-1")
		cfg.Place(second, dst, 40)
		if !cfg.IsCandidate(lab.Cat) {
			return measurement{}, fmt.Errorf("replica setup invalid")
		}
		action = cluster.Action{Kind: kind, VM: second}
	default:
		return measurement{}, fmt.Errorf("unsupported campaign action %v", kind)
	}

	rates := map[string]float64{"rubis1": rate, "rubis2": rate}
	memMB := 200
	if spec, ok := lab.Cat.VM(vm); ok {
		memMB = spec.MemoryMB
	}
	tb, err := testbed.New(lab.Cat, lab.Apps, cfg, rates, campaignTable(memMB), testbed.Options{
		Mode:       testbed.ModeRequestLevel,
		ClosedLoop: true,
		Seed:       rng.Uint64(),
	})
	if err != nil {
		return measurement{}, err
	}
	// Warm-up (1 minute, as in the paper), then the baseline window.
	if _, err := tb.MeasureWindow(time.Minute); err != nil {
		return measurement{}, err
	}
	base, err := tb.MeasureWindow(tb.Now() + time.Minute)
	if err != nil {
		return measurement{}, err
	}
	rep, err := tb.Execute([]cluster.Action{action})
	if err != nil {
		return measurement{}, err
	}
	during, err := tb.MeasureWindow(tb.Now() + rep.Duration)
	if err != nil {
		return measurement{}, err
	}
	m := measurement{
		dWatts:   during.Watts - base.Watts,
		dRT:      during.RTSec["rubis1"] - base.RTSec["rubis1"],
		dRTCoLoc: during.RTSec["rubis2"] - base.RTSec["rubis2"],
		duration: rep.Duration,
	}
	if base.Watts > 0 {
		m.dWPct = m.dWatts / base.Watts * 100
	}
	return m, nil
}

// MeasuredCostTable runs the full §III-C campaign and assembles a
// cost.Table from the measurements — the closed loop the paper describes:
// measure offline, consult at runtime. Controllers and testbeds accept the
// result anywhere PaperTable is accepted. Host power cycling and CPU
// tuning keep their published constants (they are not campaign-measurable
// at request level).
func MeasuredCostTable(seed uint64, trials int, sessionLevels []float64) (*cost.Table, error) {
	if trials <= 0 {
		trials = 3
	}
	if len(sessionLevels) == 0 {
		sessionLevels = []float64{100, 200, 400, 800}
	}
	rng := sim.NewRNG(seed, 0x7ab1e)
	table := cost.NewTable()
	families := []struct {
		kind cluster.ActionKind
		tier string
	}{
		{cluster.ActionMigrate, "db"}, {cluster.ActionMigrate, "app"}, {cluster.ActionMigrate, "web"},
		{cluster.ActionAddReplica, "db"}, {cluster.ActionAddReplica, "app"},
		{cluster.ActionRemoveReplica, "db"}, {cluster.ActionRemoveReplica, "app"},
	}
	for _, fam := range families {
		for _, sessions := range sessionLevels {
			rate := workload.RateForSessions(sessions)
			var dW, dRT, dRTCo, dur stats.Welford
			for trial := 0; trial < trials; trial++ {
				m, err := measureOneAction(rng.Split(), fam.kind, fam.tier, rate)
				if err != nil {
					return nil, fmt.Errorf("experiments: campaign %v(%s) at %v sessions: %w", fam.kind, fam.tier, sessions, err)
				}
				dW.Add(m.dWatts)
				dRT.Add(m.dRT)
				dRTCo.Add(m.dRTCoLoc)
				dur.Add(m.duration.Seconds())
			}
			table.Add(cost.Key{Kind: fam.kind, Tier: fam.tier}, cost.Entry{
				Sessions:            sessions,
				Duration:            time.Duration(dur.Mean() * float64(time.Second)),
				DeltaRTTargetSec:    math.Max(0, dRT.Mean()),
				DeltaRTColocatedSec: math.Max(0, dRTCo.Mean()),
				DeltaWatts:          math.Max(0, dW.Mean()),
			})
		}
	}
	// Published constants for the families the request-level campaign
	// cannot measure.
	paper := cost.PaperTable()
	for _, kind := range []cluster.ActionKind{
		cluster.ActionIncreaseCPU, cluster.ActionDecreaseCPU,
		cluster.ActionStartHost, cluster.ActionStopHost, cluster.ActionSetDVFS,
	} {
		for _, e := range paper.Entries(cost.Key{Kind: kind}) {
			table.Add(cost.Key{Kind: kind}, e)
		}
	}
	return table, nil
}

// randomCampaignPlacement places one replica per tier of both applications
// at 40% CPU on random hosts (the §III-C protocol) and picks the rubis1 VM
// of the requested tier plus a feasible migration destination.
func randomCampaignPlacement(lab *Lab, rng *sim.RNG, tier string) (cluster.Config, cluster.VMID, string, error) {
	hosts := lab.Cat.HostNames()
	for attempt := 0; attempt < 200; attempt++ {
		cfg := cluster.NewConfig()
		for _, h := range hosts {
			cfg.SetHostOn(h, true)
		}
		ok := true
		for _, a := range lab.Apps {
			for _, t := range a.Tiers {
				id := a.VMIDFor(t.Name, 0)
				placed := false
				start := rng.IntN(len(hosts))
				for i := 0; i < len(hosts); i++ {
					h := hosts[(start+i)%len(hosts)]
					spec, _ := lab.Cat.Host(h)
					if cfg.AllocatedCPU(h)+40 <= spec.UsableCPUPct && len(cfg.VMsOnHost(h)) < spec.MaxVMs {
						cfg.Place(id, h, 40)
						placed = true
						break
					}
				}
				if !placed {
					ok = false
				}
			}
		}
		if !ok || !cfg.IsCandidate(lab.Cat) {
			continue
		}
		vm := cluster.VMID("rubis1-" + tier + "-0")
		p, active := cfg.PlacementOf(vm)
		if !active {
			continue
		}
		for _, h := range cfg.ActiveHosts() {
			spec, _ := lab.Cat.Host(h)
			if h != p.Host && cfg.AllocatedCPU(h)+p.CPUPct <= spec.UsableCPUPct && len(cfg.VMsOnHost(h)) < spec.MaxVMs {
				return cfg, vm, h, nil
			}
		}
	}
	return cluster.Config{}, "", "", fmt.Errorf("no feasible random placement found")
}
