package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/workload"
)

// workloadSpec is one benchmark workload. Windows are never sized by the
// time budget — only the repetition counts are — so every run of a
// workload replays the same number of control windows.
type workloadSpec struct {
	name string
	why  string
	// apps selects the lab: 2 apps on 4 hosts (Fig. 8/9) or 4 apps on 8
	// hosts in two host groups (Table I's largest row).
	apps int
	// perfPwr replays under the Perf-Pwr baseline instead of Mistral.
	perfPwr bool
	// daemon drives the mistral-serve binary over HTTP instead of an
	// in-process engine.
	daemon bool
	// windows is the replay length; the first warm of them are set-up.
	windows, warm int
	// maxReps is the number of replay repetitions a run makes; it drops
	// towards minReps only on a host so slow that the time budget would be
	// overrun. maxSetups caps the set-up-only repetitions that fill what
	// is left of the budget.
	maxReps, maxSetups int
	// probeInputs caps the captured decide inputs the layer probes replay.
	probeInputs int
	// quickWindows replaces windows under -quick.
	quickWindows int
}

var workloads = []workloadSpec{
	{
		name: "fig9-replay",
		why:  "paper Fig. 8/9 scenario under Mistral: A* search and the Perf-Pwr ideal share every decide",
		apps: 2, windows: 195, warm: 15, maxReps: 2, maxSetups: 20, probeInputs: 32, quickWindows: 40,
	},
	{
		name: "fig9-perfpwr",
		why:  "same traces under the Perf-Pwr baseline: A* never runs, so it bypasses every search optimisation",
		apps: 2, perfPwr: true, windows: 195, warm: 15, maxReps: 5, maxSetups: 20, probeInputs: 32, quickWindows: 40,
	},
	{
		name: "table1-scale",
		why:  "Table I largest row, 4 apps on 8 hosts in two groups: the scale axis, coldest eval cache",
		apps: 4, windows: 60, warm: 6, maxReps: 2, maxSetups: 10, probeInputs: 8, quickWindows: 10,
	},
	{
		name: "serve-ops",
		why:  "mistral-serve over HTTP with polls, checkpoints and a kill/resume: observers, encode and restore do the work",
		apps: 2, daemon: true, windows: 100, warm: 15, maxReps: 3, maxSetups: 8, probeInputs: 16, quickWindows: 30,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// paperSeed fixes the lab (model error, measurement noise) and the base
// traces to the committed Fig. 8/9 scenario on every run.
const paperSeed = 42

// seedJitter is the relative amplitude of the per-sample perturbation the
// -seed adds to the base traces. The controller is chaotic in its inputs
// (a 0.1 % jitter moves the total search work of the replay by 14 %, and
// re-drawing the traces from another seed moves it by 25 %), so a seed
// that changed the control trajectory would drown every bound below. The
// jitter is real input — the rates the program receives differ run to run
// — but stays under the resolution at which decisions flip.
const seedJitter = 1e-6

// makeRates synthesises the workload's input: one rate vector per window,
// sampled from the paper's traces at the window's start time.
func makeRates(lab *experiments.Lab, seed uint64, windows int) []map[string]float64 {
	traces := workload.PaperWorkloads(paperSeed, lab.AppNames)
	rng := rand.New(rand.NewSource(int64(seed)))
	interval := lab.Util.MonitoringInterval
	out := make([]map[string]float64, windows)
	for i := range out {
		rates := traces.At(time.Duration(i) * interval)
		for _, name := range lab.AppNames {
			rates[name] *= 1 + seedJitter*(2*rng.Float64()-1)
		}
		out[i] = rates
	}
	return out
}
