// Command multizone demonstrates the §VI future-work extension: two
// applications spread across two data centers, managed by a three-level
// Mistral hierarchy. Level 1 tunes CPU/DVFS and migrates within each data
// center, level 2 reshapes placements and host power across the cluster,
// and level 3 — waking only on large workload swings and planning over
// half-hour windows — may move VMs between data centers over the WAN,
// paying minutes-long migrations and a per-hop cross-zone latency penalty.
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/mistralcloud/mistral"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multizone:", err)
		os.Exit(1)
	}
}

func run() error {
	rep, err := mistral.Recipe{
		Lab:      mistral.LabOptions{NumApps: 2, Zones: 2, Seed: 42},
		Strategy: "mistral",
	}.Build(mistral.RunConfig{Duration: 3 * time.Hour})
	if err != nil {
		return err
	}
	cat := rep.Lab.Cat
	fmt.Printf("zones: %v\n", cat.Zones())
	for _, z := range cat.Zones() {
		fmt.Printf("  %s: %v\n", z, cat.HostsInZone(z))
	}

	fmt.Println("\nReplaying 3 hours across two data centers...")
	res, err := rep.Engine.Run()
	if err != nil {
		return err
	}

	for i, w := range res.Windows {
		if i%5 != 0 {
			continue
		}
		fmt.Printf("t=%-8s rates=[%5.1f %5.1f]  watts=%4.0f  actions=%2d  cum=$%.1f\n",
			w.Time, w.Rates["rubis1"], w.Rates["rubis2"], w.Watts, w.Actions, w.CumUtility)
	}

	ctrl := rep.Decider.(*mistral.MistralController)
	l1, l2 := ctrl.Stats()
	l3 := ctrl.StatsL3()
	fmt.Printf("\nlevel 1 (per-DC):    %3d invocations, mean search %v\n", l1.Invocations, l1.MeanSearch())
	fmt.Printf("level 2 (cluster):   %3d invocations, mean search %v\n", l2.Invocations, l2.MeanSearch())
	fmt.Printf("level 3 (cross-DC):  %3d invocations, mean search %v\n", l3.Invocations, l3.MeanSearch())
	fmt.Printf("cumulative utility:  $%.1f (%d actions)\n", res.CumUtility, res.TotalActions)
	fmt.Println("\nNote the structural cost of zone isolation: each application can draw on")
	fmt.Println("only half the cluster without paying WAN latency and minutes-long")
	fmt.Println("wan-migrate actions (kind", mistral.ActionWANMigrate, "), so flash crowds that a")
	fmt.Println("single-zone cluster absorbs (see examples/consolidation) cost real utility here.")
	return nil
}
