// Command costexplorer inspects the transient adaptation-cost machinery:
// it prints the paper-anchored cost tables (Fig. 7), then reruns the
// §III-C offline measurement campaign against the request-level simulator
// and prints the measured counterpart, so the two can be compared.
package main

import (
	"fmt"
	"os"

	"github.com/mistralcloud/mistral/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "costexplorer:", err)
		os.Exit(1)
	}
}

func run() error {
	tbl := experiments.Fig7Table(experiments.Fig7AdaptationCosts())
	fmt.Println(tbl.ASCII())

	fmt.Println("Rerunning the offline measurement campaign on the request-level testbed")
	fmt.Println("(random placements, 40% caps, 1-minute warm-up, one action per trial)...")
	fmt.Println()
	rows, err := experiments.Fig7MeasuredCampaign(42, 2)
	if err != nil {
		return err
	}
	t := experiments.Fig7Table(rows)
	t.Title = "Measured campaign (request-level testbed)"
	fmt.Println(t.ASCII())

	fmt.Println("Shapes to compare with Fig. 7: costs grow with concurrent sessions, and")
	fmt.Println("database migrations cost more than application-tier ones, which cost more")
	fmt.Println("than web-tier ones.")
	return nil
}
