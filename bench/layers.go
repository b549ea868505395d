package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/guard"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// tracedResult is the traced pass over one workload: every per-layer
// metric (0 where the workload does not reach the layer) and the breaches
// of the pass's own correctness checks.
type tracedResult struct {
	metrics   map[string]metric
	note      string
	attempted int
	failures  []string
}

func (t *tracedResult) fail(format string, args ...any) {
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
}

// set records a per-layer metric under the unit metrics.go declares.
func (t *tracedResult) set(name string, v float64) {
	m, ok := t.metrics[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	m.Value = v
	t.metrics[name] = m
}

// probeCW is the control window the search probes plan over: long enough
// that disruptive plans stay worthwhile, as in experiments.BenchSearch.
const probeCW = 2 * time.Hour

// tracedReplays is what the replay part of the traced pass hands to the
// part that derives metrics from it.
type tracedReplays struct {
	mirror        *env      // the traced in-process environment the layer probes sample
	tr            *tracer   // its spans
	dtr           *tracer   // daemon workload: the client-side spans
	plain, traced []float64 // measured loop of the untraced and the traced repetition, reference ns
	mem           memDelta  // the untraced repetition's
	probes        []float64 // every speed probe so far
}

// runTraced is the traced pass. It replays the workload once untraced and
// once traced (the difference is the tracing overhead, and the two must
// decide identically), splits checkpoint and restore into their layers,
// then re-runs single layers on a sample of the inputs the traced strategy
// saw, each as a span under the window span the input came from, and
// writes every span to bench/out/trace-<workload>.jsonl.
func runTraced(spec workloadSpec, cfg runConfig) (*tracedResult, error) {
	t := &tracedResult{metrics: make(map[string]metric)}
	for _, def := range perLayerMetrics {
		t.metrics[def.Name] = metric{0, def.Unit}
	}
	ps, err := newPass(spec, cfg)
	if err != nil {
		return nil, err
	}
	var r *tracedReplays
	if spec.daemon {
		r, err = t.daemonReplays(spec, cfg, ps)
	} else {
		r, err = t.inprocReplays(spec, ps)
	}
	if err != nil {
		return nil, err
	}

	factor := speedFactor(r.probes)
	t.set("bench.speed_factor", factor)
	t.set("bench.trace_overhead_pct", 100*(sum(r.traced)-sum(r.plain))/sum(r.plain))
	measured := float64(ps.pl.windows - spec.warm)
	t.set("runtime.gc_cycles_per_window", float64(r.mem.gcCycles)/measured)
	t.set("runtime.gc_pause_us_per_window", float64(r.mem.gcPauseNS)/1e3/measured)
	t.set("runtime.mallocs_per_window", float64(r.mem.mallocs)/measured)
	t.replayLayers(spec, r.tr, r.mirror, factor)

	// Snapshot/encode/decode/restore apart, on the traced engine.
	var ops checkpointOps
	for n := 0; n < ps.pl.minCkpt; n++ {
		if err := ops.measure(r.mirror, envOptions{asDaemon: spec.daemon}, ps.dir, ps.p); err != nil {
			return nil, err
		}
	}
	t.attempted += 2 * ps.pl.minCkpt
	t.failures = append(t.failures, ops.failed...)
	t.set("scenario.snapshot_ms", minOf(ops.snapshot.normalised())/1e6)
	t.set("checkpoint.write_ms", minOf(ops.write.normalised())/1e6)
	t.set("checkpoint.read_ms", minOf(ops.read.normalised())/1e6)
	t.set("scenario.restore_ms", minOf(ops.restore.normalised())/1e6)
	t.set("checkpoint.mb", float64(ops.bytes)/1e6)
	t.set("checkpoint.write_alloc_mb", float64(ops.writeAlloc)/1e6)
	t.set("checkpoint.read_alloc_mb", float64(ops.readAlloc)/1e6)

	inputs, err := t.layerProbes(spec, r.tr, r.mirror, factor, ps)
	if err != nil {
		return nil, err
	}

	// One file per workload: the daemon client's spans first, the mirror's
	// after them, renumbered so IDs stay unique.
	spans := r.tr.spans
	if r.dtr != nil {
		n := len(r.dtr.spans)
		for i := range spans {
			spans[i].ID += n
			if spans[i].Parent != 0 {
				spans[i].Parent += n
			}
		}
		spans = append(r.dtr.spans, spans...)
	}
	name := "trace-" + spec.name + ".jsonl"
	if err := writeSpans(filepath.Join(cfg.layout.out, name), spans); err != nil {
		return nil, err
	}
	t.note = fmt.Sprintf("traced pass: %d windows, 1 untraced + 1 traced repetition, %d of %d decide inputs probed, checkpoint split x %d, spans in %s; %.1f s",
		ps.pl.windows, inputs, len(r.mirror.dec.inputs), ps.pl.minCkpt, filepath.Join("bench", "out", name), ps.ck.elapsed().Seconds())
	return t, nil
}

// inprocReplays runs the in-process workloads' two repetitions: plain, then
// with the strategy wrapped in the tracing decorator.
func (t *tracedResult) inprocReplays(spec workloadSpec, ps *pass) (*tracedReplays, error) {
	r := &tracedReplays{tr: newTracer()}
	_, a, err := runReplay(spec, ps.rates, envOptions{}, ps.p)
	if err != nil {
		return nil, err
	}
	var b *replay
	if r.mirror, b, err = runReplay(spec, ps.rates, envOptions{tr: r.tr}, ps.p); err != nil {
		return nil, err
	}
	t.attempted += 2 * ps.pl.windows
	t.failures = append(append(t.failures, a.failed...), b.failed...)
	if a.digest != b.digest {
		t.fail("traced replay decided differently from the untraced one (digest %.12s vs %.12s)", a.digest, b.digest)
	}
	r.probes = append(append(r.probes, a.ops.probe...), b.ops.probe...)
	cut := 1 + spec.warm
	r.plain, r.traced, r.mem = a.ops.normalised()[cut:], b.ops.normalised()[cut:], a.mem
	return r, nil
}

// daemonReplays runs the daemon workload's four repetitions: the daemon
// untraced and killed half way, the daemon with client-side spans and never
// killed (equal digests are its resume equivalence), and the in-process
// mirror of the daemon — same strategy recipe, same observers, but
// reachable by the decorators — with the observers off and on.
func (t *tracedResult) daemonReplays(spec workloadSpec, cfg runConfig, ps *pass) (*tracedReplays, error) {
	r := &tracedReplays{tr: newTracer(), dtr: newTracer()}
	r.tr.root = "mirror.window"
	bin, err := buildServe(cfg.layout)
	if err != nil {
		return nil, err
	}
	a, err := runDaemonReplay(cfg.janitor, bin, ps.dir, spec, ps.rates, ps.pl.windows/2, nil, ps.p, nil)
	if err != nil {
		return nil, err
	}
	var restorePostNS float64
	b, err := runDaemonReplay(cfg.janitor, bin, ps.dir, spec, ps.rates, 0, r.dtr, ps.p, func(d *daemon) error {
		path := filepath.Join(ps.dir, "inplace.ckpt")
		_, err := d.post("/v1/checkpoint", map[string]string{"path": path})
		if err != nil {
			return err
		}
		restorePostNS = r.dtr.probe("serve.post_restore", 0, func() {
			_, err = d.post("/v1/restore", map[string]string{"path": path})
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	t.attempted += 2 * ps.pl.windows * (1 + len(pollPaths))
	t.failures = append(append(t.failures, a.failed...), b.failed...)
	if a.digest != b.digest {
		t.fail("resumed daemon decided differently from the uninterrupted one (digest %.12s vs %.12s)", a.digest, b.digest)
	}
	r.probes = append(append(r.probes, a.ops.probe...), b.ops.probe...)
	cut := 1 + spec.warm
	r.plain, r.traced, r.mem = a.ops.normalised()[cut:], b.ops.normalised()[cut:], a.mem
	t.daemonLayers(spec, r.dtr, b, restorePostNS, a.httpErrors+b.httpErrors)

	offTr := newTracer()
	offTr.root = r.tr.root
	_, off, err := runReplay(spec, ps.rates, envOptions{tr: offTr, asDaemon: true, observersOff: true}, ps.p)
	if err != nil {
		return nil, err
	}
	var on *replay
	if r.mirror, on, err = runReplay(spec, ps.rates, envOptions{tr: r.tr, asDaemon: true}, ps.p); err != nil {
		return nil, err
	}
	t.attempted += 2 * ps.pl.windows
	t.failures = append(append(t.failures, off.failed...), on.failed...)
	if on.digest != off.digest {
		t.fail("observers changed the decisions (digest %.12s vs %.12s)", on.digest, off.digest)
	}
	if on.digest != b.digest {
		t.fail("in-process mirror decided differently from the daemon (digest %.12s vs %.12s)", on.digest, b.digest)
	}
	r.probes = append(append(r.probes, off.ops.probe...), on.ops.probe...)
	// Observer tax. Both arms run the same strategy on the same inputs, so
	// the time inside Decide differs by noise only: compare what the engine
	// did around it, where the observers' fan-out lives.
	_, onSelf := r.tr.byName(r.tr.root)
	offTotal, offSelf := offTr.byName(offTr.root)
	t.set("obs.observer_tax_pct", 100*(onSelf-offSelf)/offTotal)
	writes, _ := r.tr.byName("provenance.write")
	t.set("provenance.write_us_per_window", writes/float64(ps.pl.windows)/1e3)
	t.set("provenance.bytes_per_window", float64(r.mirror.prov.bytes)/float64(ps.pl.windows))
	return r, nil
}

// windowSpans indexes a tracer's root spans and their direct children.
type windowSpans struct {
	roots []span
	kids  map[int][]span
	self  map[int]int64
}

func indexWindows(tr *tracer) windowSpans {
	ws := windowSpans{kids: make(map[int][]span), self: selfTimes(tr.spans)}
	for _, s := range tr.spans {
		switch {
		case s.Name == tr.root:
			ws.roots = append(ws.roots, s)
		case s.Parent != 0:
			ws.kids[s.Parent] = append(ws.kids[s.Parent], s)
		}
	}
	return ws
}

// replayLayers derives the scenario.*, strategy.* and whole-replay core.*
// metrics from the traced in-process replay: spans for time, the
// benchmark's own registry and the engine's result for counts.
func (t *tracedResult) replayLayers(spec workloadSpec, tr *tracer, e *env, factor float64) {
	ws := indexWindows(tr)
	var selfNS, windowNS, decideNS []float64
	busy, decides := 0, 0
	for _, root := range ws.roots {
		var decide float64
		found := false
		for _, k := range ws.kids[root.ID] {
			if k.Name == "strategy.decide" {
				decide += float64(k.EndNS - k.StartNS)
				found = true
				decides++
			}
		}
		if !found {
			busy++
		}
		if root.Window < spec.warm {
			continue
		}
		selfNS = append(selfNS, float64(ws.self[root.ID]))
		windowNS = append(windowNS, float64(root.EndNS-root.StartNS))
		if found {
			decideNS = append(decideNS, decide)
		}
	}
	tail, _ := tailMean(decideNS)
	t.set("scenario.step_self_us", factor*mean(selfNS)/1e3)
	t.set("scenario.busy_windows", float64(busy))
	t.set("strategy.decide_ms_mean", factor*mean(decideNS)/1e6)
	t.set("strategy.decide_ms_tail", factor*tail/1e6)
	t.set("strategy.decide_share", sum(decideNS)/sum(windowNS))
	t.set("strategy.invocations", float64(decides))
	t.set("strategy.plan_actions", float64(e.dec.plans))

	exp := float64(e.reg.CounterValue("search_expansions_total"))
	gen := float64(e.reg.CounterValue("search_generated_total"))
	t.set("core.expansions", exp)
	t.set("core.generated", gen)
	if exp > 0 {
		t.set("core.generated_per_expansion", gen/exp)
	}
	// The evaluator flushes its counters into the registry at every window
	// boundary; what the last window did is still in CacheStats.
	st := e.eval.CacheStats()
	hits := float64(e.reg.CounterValue("eval_cache_hits_total")) + float64(st.Hits)
	misses := float64(e.reg.CounterValue("eval_cache_misses_total")) + float64(st.Misses)
	t.set("core.eval_calls", hits+misses)
	if hits+misses > 0 {
		t.set("core.eval_hit_pct", 100*hits/(hits+misses))
	}
	res := e.eng.Result()
	t.set("testbed.actions_applied", float64(res.TotalActions-res.FailedActions))
	t.set("testbed.actions_failed", float64(res.FailedActions))
}

// daemonLayers derives the serve.* and obs.*_get metrics from the traced
// daemon repetition's client-side spans.
func (t *tracedResult) daemonLayers(spec workloadSpec, dtr *tracer, b *daemonReplay, restorePostNS float64, httpErrors int) {
	factor := refProbeNS / median(b.ops.probe)
	ws := indexWindows(dtr)
	byName := make(map[string][]float64)
	var windowNS float64
	for _, root := range ws.roots {
		if root.Window < spec.warm {
			continue
		}
		windowNS += float64(root.EndNS - root.StartNS)
		for _, k := range ws.kids[root.ID] {
			byName[k.Name] = append(byName[k.Name], float64(k.EndNS-k.StartNS))
		}
	}
	t.set("serve.state_get_us", factor*mean(byName["serve.get_state"])/1e3)
	t.set("serve.decisions_get_ms", factor*mean(byName["serve.get_decisions"])/1e6)
	t.set("obs.metrics_get_ms", factor*mean(byName["serve.get_metrics"])/1e6)
	t.set("obs.ops_get_ms", factor*mean(byName["serve.get_ops"])/1e6)
	t.set("obs.query_get_ms", factor*mean(byName["serve.get_query"])/1e6)
	var polls float64
	for _, pp := range pollPaths {
		polls += sum(byName[pp.span])
	}
	t.set("serve.poll_share", polls/windowNS)
	t.set("serve.checkpoint_share", sum(byName["serve.post_checkpoint"])/windowNS)
	spawn, _ := dtr.byName("serve.spawn")
	t.set("serve.spawn_ready_ms", factor*spawn/1e6)
	t.set("serve.restore_post_ms", factor*restorePostNS/1e6)
	t.set("serve.http_errors", float64(httpErrors))
}

// layerProbes re-runs single layers on an even sample of the decide inputs
// of the measured region, through the same public functions the strategy
// reaches them by, and returns how many inputs it probed.
func (t *tracedResult) layerProbes(spec workloadSpec, tr *tracer, e *env, factor float64, ps *pass) (int, error) {
	var inputs []decideInput
	for _, in := range e.dec.inputs {
		if tr.spans[in.span-1].Window >= spec.warm {
			inputs = append(inputs, in)
		}
	}
	if want := ps.pl.probeInputs; len(inputs) > want {
		step := float64(len(inputs)) / float64(want)
		picked := make([]decideInput, want)
		for i := range picked {
			picked[i] = inputs[int(float64(i)*step)]
		}
		inputs = picked
	}

	// Three evaluators so that every probed layer meets the cache state it
	// would meet on every run: w1 and w2 see the same sequence of searches
	// at one and two workers, cold is reset before each use.
	newEval := func() (*core.Evaluator, error) { return e.lab.NewEvaluator() }
	w1, err := newEval()
	if err != nil {
		return 0, err
	}
	w2, err := newEval()
	if err != nil {
		return 0, err
	}
	cold, err := newEval()
	if err != nil {
		return 0, err
	}
	search := core.SearchOptions{SelfAware: true, TimePerChild: 300 * time.Microsecond}
	search.Workers = 1
	s1 := core.NewSearcher(w1, search)
	search.Workers = 2
	s2 := core.NewSearcher(w2, search)
	cat := e.lab.Cat
	interval := e.lab.Util.MonitoringInterval

	var perfpwrNS, searchNS, search2NS, simS, hitNS, missNS, lqnNS, lqnAllocs []float64
	var predictNS, applyNS, execNS, measureNS, admitNS []float64
	var expanded, generated, searchMallocs float64
	var ms runtime.MemStats
	mallocs := func() float64 { runtime.ReadMemStats(&ms); return float64(ms.Mallocs) }
	var probeErr error
	note := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	done := 0
	for _, in := range inputs {
		// The budget bounds the sample, never below four inputs.
		if done >= 4 && !ps.ck.fits(0, 1) {
			break
		}
		done++
		w1.BeginWindow()
		var ideal core.Ideal
		perfpwrNS = append(perfpwrNS, tr.probe("core.perfpwr", in.span, func() {
			var err error
			ideal, err = core.PerfPwr(w1, in.rates, core.PerfPwrOptions{Workers: 1})
			note(err)
		}))
		if probeErr != nil {
			break
		}
		if !spec.perfPwr {
			// UH as a controller with one window of history would set it:
			// what the current configuration delivers over the window.
			cur, err := w1.Steady(in.cfg, in.rates)
			note(err)
			expected := core.ExpectedUtility{Total: probeCW.Seconds() * cur.NetRate(), PerfRate: cur.PerfRate, PwrRate: cur.PowerRate}
			m0 := mallocs()
			var res core.SearchResult
			searchNS = append(searchNS, tr.probe("core.search", in.span, func() {
				var err error
				res, err = s1.Search(in.cfg, in.rates, probeCW, ideal, expected, cluster.ActionSpace{})
				note(err)
			}))
			searchMallocs += mallocs() - m0
			expanded += float64(res.Expanded)
			generated += float64(res.Generated)
			simS = append(simS, res.SearchTime.Seconds())

			w2.BeginWindow()
			ideal2, err := core.PerfPwr(w2, in.rates, core.PerfPwrOptions{Workers: 1})
			note(err)
			// The one place a second P is allowed: the ratio is what a
			// second core and a second worker buy together.
			prev := runtime.GOMAXPROCS(2)
			search2NS = append(search2NS, tr.probe("par.search_w2", in.span, func() {
				_, err := s2.Search(in.cfg, in.rates, probeCW, ideal2, expected, cluster.ActionSpace{})
				note(err)
			}))
			runtime.GOMAXPROCS(prev)
		}

		cold.ResetCache()
		missNS = append(missNS, tr.probe("core.steady_miss", in.span, func() {
			_, err := cold.Steady(in.cfg, in.rates)
			note(err)
		}))
		const hits = 2000
		hitNS = append(hitNS, tr.probe("core.steady_hit", in.span, func() {
			for i := 0; i < hits; i++ {
				_, err := cold.Steady(in.cfg, in.rates)
				note(err)
			}
		})/hits)
		const solves = 20
		m0 := mallocs()
		lqnNS = append(lqnNS, tr.probe("lqn.evaluate", in.span, func() {
			for i := 0; i < solves; i++ {
				_, err := cold.Model().Evaluate(in.cfg, in.rates, nil)
				note(err)
			}
		})/solves)
		lqnAllocs = append(lqnAllocs, (mallocs()-m0)/solves)

		actions := cluster.Enumerate(cat, in.cfg, cluster.ActionSpace{})
		if n := float64(len(actions)); n > 0 {
			deltaRT := make(map[string]float64)
			predictNS = append(predictNS, tr.probe("cost.predict", in.span, func() {
				for _, a := range actions {
					cold.Costs().PredictInto(in.cfg, a, in.rates, deltaRT)
				}
			})/n)
			applyNS = append(applyNS, tr.probe("cluster.clone_apply", in.span, func() {
				for _, a := range actions {
					_, _, err := cluster.Apply(cat, in.cfg, a)
					note(err)
				}
			})/n)
		}

		tb, err := testbed.New(cat, e.lab.Apps, in.cfg, in.rates, e.lab.Costs, testbed.Options{Seed: paperSeed})
		if err != nil {
			return done, err
		}
		if len(in.plan) > 0 {
			g := guard.New(guard.Config{}, cat)
			admitNS = append(admitNS, tr.probe("guard.admit", in.span, func() {
				g.Admit(in.now, in.cfg, in.plan)
			}))
			execNS = append(execNS, tr.probe("testbed.execute", in.span, func() {
				_, err := tb.Execute(in.plan)
				note(err)
			})/float64(len(in.plan)))
		}
		measureNS = append(measureNS, tr.probe("testbed.measure_window", in.span, func() {
			_, err := tb.MeasureWindow(interval)
			note(err)
		}))
		if probeErr != nil {
			break
		}
	}
	if probeErr != nil {
		return done, fmt.Errorf("layer probe: %w", probeErr)
	}

	t.set("core.perfpwr_ms", factor*mean(perfpwrNS)/1e6)
	if len(searchNS) > 0 {
		t.set("core.search_ms", factor*mean(searchNS)/1e6)
		t.set("core.search_sim_s_mean", mean(simS))
		t.set("par.search_speedup_w2", sum(searchNS)/sum(search2NS))
	}
	if expanded > 0 {
		t.set("core.search_us_per_expansion", factor*sum(searchNS)/expanded/1e3)
		t.set("core.search_allocs_per_expansion", searchMallocs/expanded)
	}
	t.set("core.steady_hit_ns", factor*mean(hitNS))
	t.set("core.steady_miss_us", factor*mean(missNS)/1e3)
	t.set("lqn.evaluate_us", factor*mean(lqnNS)/1e3)
	t.set("lqn.evaluate_allocs", mean(lqnAllocs))
	t.set("cost.predict_ns", factor*mean(predictNS))
	t.set("cluster.clone_apply_ns", factor*mean(applyNS))
	t.set("testbed.execute_us_per_action", factor*mean(execNS)/1e3)
	t.set("testbed.measure_window_us", factor*mean(measureNS)/1e3)
	t.set("guard.admit_us", factor*mean(admitNS)/1e3)
	return done, nil
}
