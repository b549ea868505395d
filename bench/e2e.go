package main

import (
	"fmt"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what the flags decide for one pass over one workload.
type runConfig struct {
	seed    uint64
	budget  time.Duration // wall the pass may use; repetition counts follow from it
	reps    int           // fixed replay repetitions (0 = as many as the budget holds)
	quick   bool
	layout  layout
	janitor *janitor
}

// minReps is the floor of replay repetitions: the per-index minimum needs
// two observations of every window to reject anything at all.
const minReps = 2

// segmentWindows is the run length of segmentMinTotal for windows_per_s;
// it equals checkpointEvery, so every run of the daemon workload holds
// exactly one checkpoint.
const segmentWindows = 10

// utilityFloor is added to utility_per_window so that the metric is
// positive on every workload: bounds are shares of the parent's value, and
// the Perf-Pwr baseline loses money (−0.58 $ a window here, −47.1 $ over
// the paper's Fig. 9). Subtract it to get the paper's dollars.
const utilityFloor = 5.0

// clock hands out shares of a pass's time budget.
type clock struct {
	start  time.Time
	budget time.Duration
}

func (c clock) elapsed() time.Duration { return time.Since(c.start) }

// fits reports whether an operation expected to cost d still ends inside
// the given share of the budget.
func (c clock) fits(d time.Duration, share float64) bool {
	return c.elapsed()+d <= time.Duration(share*float64(c.budget))
}

// repObs is one repetition reduced to reference nanoseconds.
type repObs struct {
	setup   []float64 // construction, then the warm-up windows
	iters   []float64 // measured windows: everything the loop did for the window
	steps   []float64 // measured windows: the step itself (daemon: POST /v1/window round trip)
	recover float64   // daemon: SIGTERM → resumed daemon ready; 0 if not killed
	ckpt    []float64 // daemon: periodic checkpoint round trips in the measured region
}

// passResult is everything a pass over one workload observed.
type passResult struct {
	spec    workloadSpec
	windows int
	reps    []repObs
	setups  [][]float64 // set-up vectors of the set-up-only repetitions
	// checkpoint_s and restore_s in reference ns, and the operations behind
	// each.
	checkpointNS, restoreNS float64
	checkpointN, restoreN   int
	mems                    []memDelta // per reference repetition
	liveHeaps               []uint64
	utility                 float64
	digest                  string
	probes                  []float64 // every probe of the pass, raw ns
	attempted               int
	failures                []string
	elapsedSec              float64
}

func (r *passResult) measured() int { return r.windows - r.spec.warm }

func (r *passResult) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// loopNS is the reference wall of the measured loop, assembled from the
// least-disturbed observation of every run of segmentWindows windows (and,
// for the daemon, of the kill/resume).
func (r *passResult) loopNS() float64 {
	iters := make([][]float64, len(r.reps))
	var recovers []float64
	for i, rep := range r.reps {
		iters[i] = rep.iters
		if rep.recover > 0 {
			recovers = append(recovers, rep.recover)
		}
	}
	return segmentMinTotal(iters, segmentWindows) + minOf(recovers)
}

// endToEnd reduces the pass to the nine end-to-end metrics and a line of
// sample counts.
func (r *passResult) endToEnd() (map[string]metric, string) {
	steps := make([][]float64, len(r.reps))
	setups := append([][]float64(nil), r.setups...)
	for i, rep := range r.reps {
		steps[i] = rep.steps
		setups = append(setups, rep.setup)
	}
	env := envelopeMin(steps)
	tail, tailN := tailMean(env)
	var allocMB, liveMB []float64
	for i := range r.mems {
		allocMB = append(allocMB, float64(r.mems[i].allocBytes)/1e6/float64(r.measured()))
		liveMB = append(liveMB, float64(r.liveHeaps[i])/1e6)
	}
	m := map[string]metric{
		"setup_s":             {sum(envelopeMin(setups)) / 1e9, "s"},
		"windows_per_s":       {float64(r.measured()) / (r.loopNS() / 1e9), "1/s"},
		"step_ms_mid":         {iqMean(env) / 1e6, "ms"},
		"step_ms_tail":        {tail / 1e6, "ms"},
		"alloc_mb_per_window": {median(allocMB), "MB"},
		"live_heap_mb":        {median(liveMB), "MB"},
		"checkpoint_s":        {r.checkpointNS / 1e9, "s"},
		"restore_s":           {r.restoreNS / 1e9, "s"},
		"utility_per_window":  {utilityFloor + r.utility/float64(r.windows), "USD"},
	}
	note := fmt.Sprintf("%d windows (%d warm-up + %d measured) x %d repetitions; set-up x %d; step_ms_mid over %d indices, step_ms_tail over %d; checkpoint x %d, restore x %d; speed factor %.3f; %.1f s",
		r.windows, r.spec.warm, r.measured(), len(r.reps), len(setups), len(env)-2*(len(env)/4), tailN,
		r.checkpointN, r.restoreN, speedFactor(r.probes), r.elapsedSec)
	return m, note
}

// plan resolves the repetition counts of a pass.
type plan struct {
	windows              int
	minReps, maxReps     int
	minSetups, maxSetups int
	minCkpt, maxCkpt     int
	probeInputs          int // decide inputs the layer probes sample
}

// The shares of the time budget the phases of the untraced pass may run to:
// replay repetitions, then (in process) checkpoint and restore operations;
// set-up-only repetitions fill the rest. The daemon's checkpoints are part
// of its replay, so its repetitions may run further.
const (
	repShare       = 0.76
	ckptShare      = 0.86
	daemonRepShare = 0.97
)

func makePlan(spec workloadSpec, cfg runConfig) plan {
	pl := plan{
		windows: spec.windows,
		minReps: minReps, maxReps: spec.maxReps,
		minSetups: 2, maxSetups: spec.maxSetups,
		minCkpt: 3, maxCkpt: 10,
		probeInputs: spec.probeInputs,
	}
	if cfg.quick {
		pl.windows = spec.quickWindows
		pl.minReps, pl.maxReps = 3, 3
		pl.minSetups, pl.maxSetups = 1, 1
		pl.minCkpt, pl.maxCkpt = 2, 2
		pl.probeInputs = 4
	}
	if cfg.reps > 0 {
		pl.minReps, pl.maxReps = cfg.reps, cfg.reps
	}
	return pl
}

// pass is what every pass over a workload starts from: the plan, the clock
// of its time budget, one speed probe, the seed's inputs and a scratch
// directory.
type pass struct {
	pl    plan
	ck    clock
	p     *speedProbe
	rates []map[string]float64
	dir   string
}

func newPass(spec workloadSpec, cfg runConfig) (*pass, error) {
	ps := &pass{pl: makePlan(spec, cfg), ck: clock{start: time.Now(), budget: cfg.budget}, p: newSpeedProbe()}
	e, err := newEnv(spec, envOptions{})
	if err != nil {
		return nil, err
	}
	ps.rates = makeRates(e.lab, cfg.seed, ps.pl.windows)
	if ps.dir, err = cfg.janitor.tempDir(cfg.layout.build); err != nil {
		return nil, err
	}
	return ps, nil
}

// runE2E is the untraced pass: replay repetitions, then checkpoint and
// restore operations on the last replayed engine, then set-up-only
// repetitions, each phase for as long as its share of the budget lasts.
func runE2E(spec workloadSpec, cfg runConfig) (*passResult, error) {
	if spec.daemon {
		return runDaemonE2E(spec, cfg)
	}
	ps, err := newPass(spec, cfg)
	if err != nil {
		return nil, err
	}
	pl, ck, p, rates, dir := ps.pl, ps.ck, ps.p, ps.rates, ps.dir
	res := &passResult{spec: spec, windows: pl.windows}

	var last *env
	var repCost time.Duration
	for r := 0; r < pl.maxReps; r++ {
		if r >= pl.minReps && !ck.fits(repCost, repShare) {
			break
		}
		t0 := time.Now()
		e, rep, err := runReplay(spec, rates, envOptions{}, p)
		if err != nil {
			return nil, err
		}
		repCost = time.Since(t0)
		last = e
		res.addReplay(rep)
		res.mems = append(res.mems, rep.mem)
		res.liveHeaps = append(res.liveHeaps, rep.liveHeap)
	}

	var ops checkpointOps
	for n := 0; n < pl.maxCkpt; n++ {
		if n >= pl.minCkpt && !ck.fits(0, ckptShare) {
			break
		}
		if err := ops.measure(last, envOptions{}, dir, p); err != nil {
			return nil, err
		}
	}
	res.checkpointN, res.restoreN = len(ops.write.ns), len(ops.restore.ns)
	res.checkpointNS = minOf(pairSums(&ops.snapshot, &ops.write))
	res.restoreNS = minOf(pairSums(&ops.read, &ops.restore))
	res.probes = append(res.probes, ops.snapshot.probe...)
	res.probes = append(res.probes, ops.restore.probe...)
	res.attempted += res.checkpointN + res.restoreN
	res.failures = append(res.failures, ops.failed...)

	var setupCost time.Duration
	for n := 0; n < pl.maxSetups; n++ {
		if n >= pl.minSetups && !ck.fits(setupCost, 1) {
			break
		}
		t0 := time.Now()
		_, rep, err := runReplay(spec, rates[:spec.warm], envOptions{}, p)
		if err != nil {
			return nil, err
		}
		setupCost = time.Since(t0)
		res.setups = append(res.setups, rep.ops.normalised())
		res.probes = append(res.probes, rep.ops.probe...)
		res.attempted += spec.warm
		res.failures = append(res.failures, rep.failed...)
	}
	res.elapsedSec = ck.elapsed().Seconds()
	return res, nil
}

// addReplay folds one full in-process repetition into the pass.
func (r *passResult) addReplay(rep *replay) {
	norm := rep.ops.normalised()
	cut := 1 + r.spec.warm
	r.reps = append(r.reps, repObs{setup: norm[:cut], iters: norm[cut:], steps: norm[cut:]})
	r.probes = append(r.probes, rep.ops.probe...)
	r.attempted += r.windows
	r.failures = append(r.failures, rep.failed...)
	r.checkDigest(rep.digest, rep.utility)
}

// checkDigest holds every repetition to repetition 0's decisions.
func (r *passResult) checkDigest(digest string, utility float64) {
	if r.digest == "" {
		r.digest, r.utility = digest, utility
		return
	}
	if digest != r.digest {
		r.fail("repetition %d decided differently from repetition 0 (digest %.12s vs %.12s)", len(r.reps)-1, digest, r.digest)
	}
	if utility != r.utility {
		r.fail("repetition %d accrued utility %v, repetition 0 %v", len(r.reps)-1, utility, r.utility)
	}
}

// runDaemonE2E is runE2E against the mistral-serve binary. Repetition 0 is
// never killed and is the uninterrupted reference; every later repetition
// is killed half way and resumed, and must reproduce its decisions.
func runDaemonE2E(spec workloadSpec, cfg runConfig) (*passResult, error) {
	bin, err := buildServe(cfg.layout)
	if err != nil {
		return nil, err
	}
	ps, err := newPass(spec, cfg)
	if err != nil {
		return nil, err
	}
	pl, ck, p, rates, dir := ps.pl, ps.ck, ps.p, ps.rates, ps.dir
	res := &passResult{spec: spec, windows: pl.windows}

	var repCost time.Duration
	for r := 0; r < pl.maxReps; r++ {
		if r >= pl.minReps && !ck.fits(repCost, daemonRepShare) {
			break
		}
		killAt := 0
		if r > 0 {
			killAt = pl.windows / 2
		}
		t0 := time.Now()
		rep, err := runDaemonReplay(cfg.janitor, bin, dir, spec, rates, killAt, nil, p, nil)
		if err != nil {
			return nil, err
		}
		repCost = time.Since(t0)
		res.addDaemonReplay(rep, killAt)
		if r > 0 {
			res.mems = append(res.mems, rep.mem)
			res.liveHeaps = append(res.liveHeaps, rep.liveHeap)
		}
	}
	// The periodic checkpoints grow with the history they carry, so the
	// daemon's checkpoint_s is the mean over them of the per-index minimum,
	// not the minimum, which would be the first and smallest one alone.
	ckpts := make([][]float64, len(res.reps))
	var recovers []float64
	for i, rep := range res.reps {
		ckpts[i] = rep.ckpt
		res.checkpointN += len(rep.ckpt)
		if rep.recover > 0 {
			recovers = append(recovers, rep.recover)
		}
	}
	res.checkpointNS = mean(envelopeMin(ckpts))
	res.restoreNS, res.restoreN = minOf(recovers), len(recovers)

	var setupCost time.Duration
	for n := 0; n < pl.maxSetups; n++ {
		if n >= pl.minSetups && !ck.fits(setupCost, 1) {
			break
		}
		t0 := time.Now()
		rep, err := runDaemonReplay(cfg.janitor, bin, dir, spec, rates[:spec.warm], 0, nil, p, nil)
		if err != nil {
			return nil, err
		}
		setupCost = time.Since(t0)
		res.setups = append(res.setups, rep.ops.normalised())
		res.probes = append(res.probes, rep.ops.probe...)
		res.attempted += spec.warm * (2 + len(pollPaths))
		res.failures = append(res.failures, rep.failed...)
	}
	res.elapsedSec = ck.elapsed().Seconds()
	return res, nil
}

// addDaemonReplay folds one full daemon repetition into the pass.
func (r *passResult) addDaemonReplay(rep *daemonReplay, killAt int) {
	speed := localSpeed(rep.ops.probe, probeHalfWindow)
	norm := scale(rep.ops.ns, speed)
	cut := 1 + r.spec.warm
	o := repObs{
		setup: norm[:cut],
		iters: norm[cut:],
		steps: scale(rep.post, speed[1:])[r.spec.warm:],
	}
	for i, ns := range scale(rep.ckpt, speed[1:]) {
		if ns > 0 && i >= r.spec.warm {
			o.ckpt = append(o.ckpt, ns)
		}
	}
	if killAt > 0 {
		o.recover = rep.recoverNS * refProbeNS / speed[1+killAt]
		r.attempted++
	}
	r.reps = append(r.reps, o)
	r.probes = append(r.probes, rep.ops.probe...)
	r.attempted += 1 + r.windows*(1+len(pollPaths)) + r.windows/checkpointEvery
	r.failures = append(r.failures, rep.failed...)
	r.checkDigest(rep.digest, rep.utility)
}
