package scenario_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
	"github.com/mistralcloud/mistral/internal/obs/tsdb"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/testbed"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// engineGoldenWindows is how many monitoring windows each engine golden
// replays.
const engineGoldenWindows = 40

// engineStreams are the fixtures the engine goldens cover: every sink on a
// clean Mistral replay, the same under the fault plane with rollback, guard
// and step provenance, and a baseline with observability fully off.
var engineStreams = []struct {
	name      string
	strategy  string
	faults    bool
	observers bool
}{
	{"mistral", "mistral", false, true},
	{"mistral-faults", "mistral", true, true},
	{"perfpwr-noobs", "perf-pwr", false, false},
}

var wallUS = regexp.MustCompile(`"wall_us":\d+`)

// engineStreamsGolden replays engineGoldenWindows windows and renders one line per byte surface the engine publishes to — name, sha256
// and length — with every wall-clock quantity cleared first. A surface the
// fixture does not have renders as absent.
func engineStreamsGolden(t *testing.T, strategyName string, faults, observers bool) []byte {
	t.Helper()
	var ob *obs.Observer
	var trace, logs bytes.Buffer
	if observers {
		ob = &obs.Observer{
			Metrics: obs.NewRegistry(),
			Trace:   obs.NewTracer(&trace, obs.FormatJSONL),
			Ops:     obs.NewOpsState(),
			History: tsdb.New(tsdb.Options{}),
			Log: slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{
				ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
					if a.Key == slog.TimeKey {
						return slog.Attr{}
					}
					return a
				},
			})),
		}
	}
	// The testbed, fault plane, guard, evaluator and controllers resolve the
	// process default at construction, as they do in the binaries, which
	// build their replays through the same Recipe.Build.
	obs.SetDefault(ob)
	defer obs.SetDefault(nil)

	rc := experiments.Recipe{Lab: experiments.LabOptions{NumApps: 2, Seed: 42}, Strategy: strategyName}
	if faults {
		rc.FaultRate, rc.FaultSeed = 0.3, 5
		rc.ExecPolicy = testbed.RollbackOnFailure
		rc.Guard = true
	}
	var prov bytes.Buffer
	rp, err := rc.Build(scenario.RunConfig{
		Duration:       engineGoldenWindows * 2 * time.Minute,
		Provenance:     provenance.NewRecorder(&prov),
		StepProvenance: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := rp.Engine

	// Registry values at every window boundary, not just the last.
	var counters bytes.Buffer
	for !e.Done() {
		sr, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ob != nil {
			fmt.Fprintf(&counters, "w=%02d %s\n", sr.Index, deterministicMetrics(ob.Metrics))
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	line := func(name string, b []byte) {
		if b == nil {
			fmt.Fprintf(&out, "%-12s absent\n", name)
			return
		}
		fmt.Fprintf(&out, "%-12s sha256=%x len=%d\n", name, sha256.Sum256(b), len(b))
	}
	asJSON := func(v any) []byte {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	line("result", asJSON(e.Result()))
	line("provenance", prov.Bytes())

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	line("snapshot", asJSON(snap))

	if ob == nil {
		for _, name := range []string{"trace", "query", "slo", "ops", "metrics", "log"} {
			line(name, nil)
		}
		return out.Bytes()
	}

	line("trace", wallUS.ReplaceAll(trace.Bytes(), []byte(`"wall_us":0`)))

	resp, err := ob.History.Query(ob.History.Names(), 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	line("query", asJSON(resp))

	line("slo", asJSON(e.SLO().Snapshot()))

	ops := ob.Ops.Snapshot()
	ops.LastDecideWallMS, ops.SlowestWindows, ops.UpdatedUnixMS = 0, nil, 0
	line("ops", asJSON(ops))

	line("metrics", counters.Bytes())

	// Every log line is deterministic once its timestamp is dropped.
	line("log", logs.Bytes())
	return out.Bytes()
}

// deterministicMetrics renders the registry's deterministic counters, the
// engine's gauges and its window-utility histogram, sorted by name.
func deterministicMetrics(reg *obs.Registry) string {
	snap := reg.Snapshot()
	var parts []string
	for name, v := range snap.Counters {
		switch {
		case strings.HasPrefix(name, "scenario_"), strings.HasPrefix(name, "fault_"),
			strings.HasPrefix(name, "eval_cache_"), name == "search_expansions_total":
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "scenario_") {
			parts = append(parts, fmt.Sprintf("%s=%v", name, v))
		}
	}
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, "scenario_") {
			raw, _ := json.Marshal(h)
			parts = append(parts, fmt.Sprintf("%s=%s", name, raw))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// TestEngineStreamsGolden pins every byte surface the engine's per-window
// publish feeds — Result, provenance, spans, /v1/query, the SLO snapshot,
// /ops, registry values at each window boundary, the log and the checkpoint
// — to goldens generated before the engine was restructured. Regenerate with
// `go test ./internal/scenario/ -run TestEngineStreamsGolden -update` only
// when a change is meant to move one of them.
func TestEngineStreamsGolden(t *testing.T) {
	for _, s := range engineStreams {
		s := s
		t.Run(s.name, func(t *testing.T) {
			path := filepath.Join("testdata", "engine_"+s.name+".golden")
			got := engineStreamsGolden(t, s.strategy, s.faults, s.observers)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Errorf("surface differs from %s:\n got: %s\nwant: %s", path, g, w)
				}
			}
		})
	}
}
