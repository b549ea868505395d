package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"github.com/mistralcloud/mistral/internal/checkpoint"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
)

// envOptions selects what surrounds the engine of an in-process replay.
type envOptions struct {
	// tr, when non-nil, wraps the strategy in a tracedDecider and counts
	// evaluator and search work in a registry of the benchmark's own.
	tr *tracer
	// asDaemon builds the strategy and the observers the way mistral-serve
	// does (default search options, decision provenance, registry, ops
	// plane, telemetry history, a span tracer writing to io.Discard, a
	// provenance recorder with per-step outcomes).
	asDaemon bool
	// observersOff, with asDaemon, keeps the daemon's strategy but drops
	// every observer: the other arm of the observer-tax comparison.
	observersOff bool
}

// env is one freshly built control environment.
type env struct {
	spec workloadSpec
	lab  *experiments.Lab
	eval *core.Evaluator
	eng  *scenario.Engine
	dec  *tracedDecider // nil unless traced
	prov *tracedWriter  // nil unless the observers are on
	reg  *obs.Registry  // nil unless traced or observed
}

// newEnv constructs lab, evaluator, strategy, testbed and engine: the work
// the construction part of setup_s times.
func newEnv(spec workloadSpec, opts envOptions) (*env, error) {
	e := &env{spec: spec}
	lab, err := experiments.NewLab(experiments.LabOptions{NumApps: spec.apps, Seed: paperSeed})
	if err != nil {
		return nil, err
	}
	e.lab = lab

	var engineObs, countObs *obs.Observer
	if opts.asDaemon && !opts.observersOff {
		e.reg = obs.NewRegistry()
		engineObs = &obs.Observer{
			Metrics: e.reg,
			Trace:   obs.NewTracer(io.Discard, obs.FormatJSONL),
			Ops:     obs.NewOpsState(),
			History: tsdb.New(tsdb.Options{}),
		}
		countObs = engineObs
		// The daemon installs its observer as the process default before it
		// builds anything; testbed and evaluator pick it up from there.
		obs.SetDefault(engineObs)
		defer obs.SetDefault(nil)
	} else if opts.tr != nil {
		e.reg = obs.NewRegistry()
		countObs = &obs.Observer{Metrics: e.reg}
	}

	if e.eval, err = lab.NewEvaluator(); err != nil {
		return nil, err
	}
	if countObs != nil {
		e.eval.SetObserver(countObs)
	}
	var d scenario.Decider
	if spec.perfPwr {
		d = strategy.NewPerfPwr(e.eval)
	} else {
		cfg := strategy.MistralConfig{
			HostGroups:         lab.HostGroups(),
			MonitoringInterval: lab.Util.MonitoringInterval,
			Workers:            1,
			Obs:                countObs,
			Provenance:         opts.asDaemon,
		}
		if !opts.asDaemon {
			// experiments.buildDecider's setting for the paper's replays.
			cfg.Search = core.SearchOptions{TimePerChild: 300 * time.Microsecond}
		}
		if d, err = strategy.NewMistral(e.eval, cfg); err != nil {
			return nil, err
		}
	}
	if opts.tr != nil {
		e.dec = &tracedDecider{Decider: d, tr: opts.tr}
		d = e.dec
	}
	tb, err := lab.NewTestbed()
	if err != nil {
		return nil, err
	}
	rc := scenario.RunConfig{
		Traces:   lab.Traces,
		Interval: lab.Util.MonitoringInterval,
		Utility:  lab.Util,
		Workers:  1,
		Obs:      engineObs,
	}
	if engineObs != nil {
		e.prov = &tracedWriter{w: io.Discard, tr: opts.tr}
		rc.Provenance = provenance.NewRecorder(e.prov)
		rc.StepProvenance = true
	}
	if e.eng, err = scenario.NewEngine(tb, d, rc); err != nil {
		return nil, err
	}
	return e, nil
}

// digester folds every window's observable decision into one hash: rates,
// plan size, utility bits and active hosts. Two replays of one input that
// made the same decisions have the same digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) window(index int, rates map[string]float64, actions int, utility float64, activeHosts int) {
	names := make([]string, 0, len(rates))
	for n := range rates {
		names = append(names, n)
	}
	sort.Strings(names)
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
	put(uint64(index))
	for _, n := range names {
		d.h.Write([]byte(n))
		put(math.Float64bits(rates[n]))
	}
	put(uint64(actions))
	put(math.Float64bits(utility))
	put(uint64(activeHosts))
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// memDelta is what the Go runtime did between two points of a replay.
type memDelta struct {
	allocBytes, mallocs, gcPauseNS uint64
	gcCycles                       uint32
}

func memBetween(a, b *runtime.MemStats) memDelta {
	return memDelta{
		allocBytes: b.TotalAlloc - a.TotalAlloc,
		mallocs:    b.Mallocs - a.Mallocs,
		gcPauseNS:  b.PauseTotalNs - a.PauseTotalNs,
		gcCycles:   b.NumGC - a.NumGC,
	}
}

// replay is one repetition's raw observations.
type replay struct {
	// ops[0] is the construction (daemon: spawn to first 200), ops[1+i] is
	// window i, warm-up included; one probe follows each.
	ops      opSeries
	digest   string
	utility  float64 // cumulative, over all windows
	mem      memDelta
	liveHeap uint64
	failed   []string // one entry per failed operation or breached check
}

// runReplay builds a fresh environment and steps it through rates[:windows]
// in a closed loop, one probe after every window.
func runReplay(spec workloadSpec, rates []map[string]float64, opts envOptions, p *speedProbe) (*env, *replay, error) {
	r := &replay{}
	// Live heap is reported over this baseline, which holds the probe's
	// ring and whatever earlier repetitions the caller still references.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	baseHeap := m0.HeapAlloc
	var e *env
	if err := r.ops.time(p, func() (err error) {
		e, err = newEnv(spec, opts)
		return err
	}); err != nil {
		return nil, nil, err
	}
	dg := newDigester()
	var ledger float64
	for i, rt := range rates {
		if i == spec.warm {
			runtime.ReadMemStats(&m0)
		}
		opts.tr.beginWindow(i)
		var sr scenario.StepResult
		err := r.ops.time(p, func() (err error) {
			sr, err = e.eng.StepRates(rt)
			return err
		})
		opts.tr.endWindow()
		if err != nil {
			return nil, nil, fmt.Errorf("window %d: %w", i, err)
		}
		if sr.ProvErr != nil {
			r.failed = append(r.failed, fmt.Sprintf("window %d: provenance: %v", i, sr.ProvErr))
		}
		w := sr.Window
		dg.window(i, w.Rates, w.Actions, w.Utility, w.ActiveHosts)
		ledger += w.Utility
	}
	runtime.ReadMemStats(&m1)
	res := e.eng.Result()
	r.digest = dg.sum()
	r.utility = res.CumUtility
	if ledger != res.CumUtility {
		r.failed = append(r.failed, fmt.Sprintf("utility ledger sums to %v, engine reports %v", ledger, res.CumUtility))
	}
	if len(rates) > spec.warm {
		r.mem = memBetween(&m0, &m1)
	}
	runtime.GC()
	runtime.GC() // what a sync.Pool held survives the first collection
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > baseHeap {
		r.liveHeap = m1.HeapAlloc - baseHeap
	}
	return e, r, nil
}

// recipe is the checkpoint envelope's construction recipe for the
// workload's environment.
func (e *env) recipe(snap *scenario.Snapshot) *checkpoint.File {
	name := "mistral"
	if e.spec.perfPwr {
		name = "perf-pwr"
	}
	return &checkpoint.File{
		Strategy: name,
		Workers:  1,
		Lab:      experiments.LabOptions{NumApps: e.spec.apps, Seed: paperSeed},
		Scenario: snap,
	}
}

// checkpointOps accumulates timed Snapshot+Write operations on a replayed
// engine and Read+rebuild+Restore operations from the file they leave. The
// four series feed the per-layer metrics; their pair-wise sums are
// checkpoint_s and restore_s.
//
// Each operation runs after a forced collection and with the collector
// held off: whether a cycle lands inside a 0.2 s operation that allocates
// about as much as the heap holds depends on a few MB either way, and moved
// the minimum of ten by ±10 % from one process to the next. What the
// operations allocate is reported beside their time instead.
type checkpointOps struct {
	snapshot, write, read, restore opSeries
	bytes                          int64
	writeAlloc, readAlloc          uint64 // bytes allocated by the last checkpoint and the last restore
	failed                         []string
}

// quiet runs fn after a forced collection with the collector off and
// returns the bytes fn allocated.
func quiet(fn func() error) (uint64, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, err
}

// measure adds one checkpoint and one restore of e's engine.
func (c *checkpointOps) measure(e *env, opts envOptions, dir string, p *speedProbe) error {
	path := filepath.Join(dir, "inproc.ckpt")
	var err error
	if c.writeAlloc, err = quiet(func() error {
		var snap *scenario.Snapshot
		if err := c.snapshot.time(p, func() (err error) {
			snap, err = e.eng.Snapshot()
			return err
		}); err != nil {
			return err
		}
		return c.write.time(p, func() error { return checkpoint.Write(path, e.recipe(snap)) })
	}); err != nil {
		return err
	}
	if c.bytes, err = fileSize(path); err != nil {
		return err
	}

	var fresh *env
	if c.readAlloc, err = quiet(func() error {
		var ck *checkpoint.File
		if err := c.read.time(p, func() (err error) {
			ck, err = checkpoint.Read(path)
			return err
		}); err != nil {
			return err
		}
		return c.restore.time(p, func() (err error) {
			if fresh, err = newEnv(e.spec, opts); err != nil {
				return err
			}
			return fresh.eng.Restore(ck.Scenario)
		})
	}); err != nil {
		return err
	}
	if got, want := fresh.eng.WindowIndex(), e.eng.WindowIndex(); got != want {
		c.failed = append(c.failed, fmt.Sprintf("restored engine is at window %d, checkpointed one at %d", got, want))
	}
	if got, want := fresh.eng.Result().CumUtility, e.eng.Result().CumUtility; got != want {
		c.failed = append(c.failed, fmt.Sprintf("restored cumulative utility %v, checkpointed %v", got, want))
	}
	return nil
}

// pairSums adds two normalised series element by element.
func pairSums(a, b *opSeries) []float64 {
	x, y := a.normalised(), b.normalised()
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}
