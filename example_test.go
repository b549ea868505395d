package mistral_test

import (
	"fmt"
	"time"

	"github.com/mistralcloud/mistral"
)

// ExampleRecipe_Build builds the paper's 2-application setup under the
// hierarchical Mistral controller, replays half an hour of the Fig. 4
// workload day, and reports what it did.
func ExampleRecipe_Build() {
	rep, err := mistral.Recipe{
		Lab:      mistral.LabOptions{NumApps: 2, Seed: 42},
		Strategy: "mistral",
	}.Build(mistral.RunConfig{Duration: 30 * time.Minute})
	if err != nil {
		fmt.Println("setup:", err)
		return
	}
	res, err := rep.Engine.Run()
	if err != nil {
		fmt.Println("replay:", err)
		return
	}
	fmt.Printf("windows: %d\n", len(res.Windows))
	fmt.Printf("strategy: %s\n", res.Strategy)
	// Output:
	// windows: 15
	// strategy: Mistral
}

// ExamplePerfPwr shows the Perf-Pwr optimizer consolidating at low load.
func ExamplePerfPwr() {
	lab, err := mistral.NewLab(mistral.LabOptions{NumApps: 2, Seed: 42})
	if err != nil {
		fmt.Println("setup:", err)
		return
	}
	low, err := mistral.PerfPwr(lab, map[string]float64{"rubis1": 5, "rubis2": 5})
	if err != nil {
		fmt.Println("optimize:", err)
		return
	}
	high, err := mistral.PerfPwr(lab, map[string]float64{"rubis1": 90, "rubis2": 90})
	if err != nil {
		fmt.Println("optimize:", err)
		return
	}
	fmt.Printf("consolidates at low load: %v\n", low.Config.NumActiveHosts() < high.Config.NumActiveHosts())
	// Output:
	// consolidates at low load: true
}
