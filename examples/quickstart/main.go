// Command quickstart runs the smallest useful Mistral setup: two RUBiS
// applications on four hosts, driven by the paper's workloads for one hour
// under the hierarchical Mistral controller, printing per-window metrics
// and the accrued utility.
package main

import (
	"fmt"
	"os"
	"time"

	"github.com/mistralcloud/mistral"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	rep, err := mistral.Recipe{
		Lab:      mistral.LabOptions{NumApps: 2, Seed: 42},
		Strategy: "mistral",
	}.Build(mistral.RunConfig{Duration: time.Hour})
	if err != nil {
		return err
	}

	fmt.Println("Replaying one hour of the paper's workloads under Mistral...")
	res, err := rep.Engine.Run()
	if err != nil {
		return err
	}

	fmt.Printf("%-6s  %-7s  %-7s  %-9s  %-9s  %-6s  %-7s\n",
		"window", "rubis1", "rubis2", "rt1(ms)", "rt2(ms)", "watts", "utility")
	for _, w := range res.Windows {
		fmt.Printf("%-6s  %7.1f  %7.1f  %9.0f  %9.0f  %6.0f  %7.2f\n",
			w.Time, w.Rates["rubis1"], w.Rates["rubis2"],
			w.RTSec["rubis1"]*1000, w.RTSec["rubis2"]*1000, w.Watts, w.Utility)
	}
	fmt.Printf("\ncumulative utility: $%.2f over %d windows (%d adaptation actions, %d decision runs)\n",
		res.CumUtility, len(res.Windows), res.TotalActions, res.Invocations)
	return nil
}
