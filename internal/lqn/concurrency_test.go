package lqn

import (
	"reflect"
	"sync"
	"testing"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
)

// TestModelEvaluateConcurrent pins the Model's thread-safety contract: run
// under -race, many goroutines evaluating a mix of configurations and
// workloads on one shared Model must neither race nor diverge from the
// serially computed results.
func TestModelEvaluateConcurrent(t *testing.T) {
	a := singleTierApp("a", 8)
	b := singleTierApp("b", 12)
	specs := []*app.Spec{a, b}
	cat := twoHostCatalog(t, specs)
	m, err := NewModel(cat, specs)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}

	mkCfg := func(cpuA, cpuB float64, bHost string) cluster.Config {
		cfg := cluster.NewConfig()
		cfg.SetHostOn("h0", true)
		cfg.SetHostOn("h1", true)
		cfg.Place("a-t-0", "h0", cpuA)
		cfg.Place("b-t-0", bHost, cpuB)
		return cfg
	}
	type input struct {
		cfg   cluster.Config
		rates map[string]float64
	}
	inputs := []input{
		{mkCfg(40, 40, "h1"), map[string]float64{"a": 30, "b": 20}},
		{mkCfg(40, 40, "h0"), map[string]float64{"a": 30, "b": 20}},
		{mkCfg(60, 30, "h1"), map[string]float64{"a": 55, "b": 5}},
		{mkCfg(30, 60, "h1"), map[string]float64{"a": 5, "b": 40}},
	}

	// Serial reference results, one per input.
	want := make([]*Result, len(inputs))
	for i, in := range inputs {
		w, err := m.Evaluate(in.cfg, in.rates, nil)
		if err != nil {
			t.Fatalf("serial Evaluate(%d): %v", i, err)
		}
		want[i] = w
	}

	const goroutines = 16
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(inputs)
				got, err := m.Evaluate(inputs[i].cfg, inputs[i].rates, nil)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent Evaluate(%d) diverged from serial result", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Evaluate: %v", err)
	}
}
