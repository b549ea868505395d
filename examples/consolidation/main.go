// Command consolidation contrasts Mistral against the cost-blind Perf-Pwr
// baseline on the paper's 2-application World Cup day: both consolidate
// servers at low load, but only Mistral weighs each adaptation's transient
// cost against its benefit over the predicted stability interval.
package main

import (
	"fmt"
	"os"

	"github.com/mistralcloud/mistral"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "consolidation:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("Replaying the full 15:00-21:30 scenario under Mistral and Perf-Pwr...")

	results := make(map[string]*mistral.RunResult, 2)
	for _, strategy := range []string{"mistral", "perf-pwr"} {
		// A fresh lab per strategy: identical workloads and noise.
		rep, err := mistral.Recipe{
			Lab:      mistral.LabOptions{NumApps: 2, Seed: 42},
			Strategy: strategy,
		}.Build(mistral.RunConfig{})
		if err != nil {
			return err
		}
		res, err := rep.Engine.Run()
		if err != nil {
			return err
		}
		results[res.Strategy] = res
	}

	fmt.Printf("\n%-10s  %12s  %9s  %12s  %11s\n", "strategy", "cum.utility", "actions", "violations", "mean watts")
	for _, which := range []string{"Mistral", "Perf-Pwr"} {
		res := results[which]
		var watts float64
		for _, w := range res.Windows {
			watts += w.Watts
		}
		watts /= float64(len(res.Windows))
		fmt.Printf("%-10s  %12.1f  %9d  %12d  %11.0f\n",
			which, res.CumUtility, res.TotalActions, res.TargetViolations, watts)
	}

	m, p := results["Mistral"], results["Perf-Pwr"]
	fmt.Printf("\nMistral accrued $%.1f more utility than Perf-Pwr with %d fewer target violations.\n",
		m.CumUtility-p.CumUtility, p.TargetViolations-m.TargetViolations)
	fmt.Println("Ignoring transient adaptation costs makes Perf-Pwr fire disruptive migrations on")
	fmt.Println("every workload wiggle, paying penalties its steady-state savings never recoup;")
	fmt.Println("Mistral prefers cheap CPU retunes and reshapes the cluster only when the")
	fmt.Println("predicted stability interval lets a migration pay for itself (Fig. 9).")
	return nil
}
