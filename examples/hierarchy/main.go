// Command hierarchy runs the paper's largest scenario: four RUBiS
// applications (20 VMs) on eight hosts under a two-level controller
// hierarchy — two 1st-level controllers with zero-width bands tuning CPU
// and migrating within their own rack, and a 2nd-level controller with an
// 8 req/s band wielding the full action set across the cluster.
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/mistralcloud/mistral"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hierarchy:", err)
		os.Exit(1)
	}
}

func run() error {
	// Lab.HostGroups partitions the eight hosts into two "racks" of four,
	// one 1st-level controller each; the 2nd level's band defaults to
	// 8 req/s.
	rep, err := mistral.Recipe{
		Lab:      mistral.LabOptions{NumApps: 4, Seed: 42},
		Strategy: "mistral",
	}.Build(mistral.RunConfig{Duration: 2 * time.Hour})
	if err != nil {
		return err
	}

	fmt.Println("Replaying 2 hours of the 4-app scenario under the two-level hierarchy...")
	res, err := rep.Engine.Run()
	if err != nil {
		return err
	}

	for i, w := range res.Windows {
		if i%5 != 0 {
			continue
		}
		fmt.Printf("t=%-8s rates=[%5.1f %5.1f %5.1f %5.1f]  watts=%4.0f  actions=%2d  cum=$%.1f\n",
			w.Time, w.Rates["rubis1"], w.Rates["rubis2"], w.Rates["rubis3"], w.Rates["rubis4"],
			w.Watts, w.Actions, w.CumUtility)
	}

	l1, l2 := rep.Decider.(*mistral.MistralController).Stats()
	fmt.Printf("\nlevel-1 controllers: %d invocations, mean search %v\n", l1.Invocations, l1.MeanSearch())
	fmt.Printf("level-2 controller:  %d invocations, mean search %v\n", l2.Invocations, l2.MeanSearch())
	fmt.Printf("cumulative utility:  $%.1f (%d actions)\n", res.CumUtility, res.TotalActions)
	fmt.Println("\nThe 1st level runs every monitoring interval but only produces quick, local")
	fmt.Println("refinements; the 2nd level wakes only on band escapes and reshapes the cluster.")
	return nil
}
