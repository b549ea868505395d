package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is the file at the repository root that names this
// benchmark to the driver.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// BENCHMARK.json and the tables the program reports from must not drift.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	l, err := findLayout()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(l.root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default budget is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	sameDefs(t, "end_to_end", b.EndToEnd, endToEndMetrics)
	sameDefs(t, "per_layer", b.PerLayer, perLayerMetrics)
}

func sameDefs(t *testing.T, list string, inJSON, inProgram []metricDef) {
	t.Helper()
	if len(inJSON) != len(inProgram) {
		t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", list, len(inJSON), len(inProgram))
	}
	for i := 0; i < len(inJSON) && i < len(inProgram); i++ {
		if inJSON[i] != inProgram[i] {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", list, i, inJSON[i], inProgram[i])
		}
	}
}

// The smoke run: every workload, both passes, under -quick. It keeps the
// harness compiling against the repository's packages and its correctness
// gate honest; the numbers of a -quick run mean nothing.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives mistral-serve")
	}
	l, err := findLayout()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(l.build, "run-*"))
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-seed", "7"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < len(workloads) {
		t.Fatalf("short output:\n%s", stdout.String())
	}
	for i, w := range workloads {
		var rep struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		line := lines[len(lines)-len(workloads)+i]
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("%s: result line is not the contract's object: %v\n%s", w.name, err, line)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, rep.Correct, rep.Failed, rep.Attempted)
		}
		for _, def := range endToEndMetrics {
			m, ok := rep.Metrics[def.Name]
			if !ok || m.Unit != def.Unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", w.name, def.Name, m, ok)
			}
		}
		for _, def := range perLayerMetrics {
			if m, ok := rep.Metrics[def.Name]; !ok || m.Unit != def.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", w.name, def.Name, m, ok)
			}
		}
		// The layers a workload reaches must not read zero there.
		reached := []string{"strategy.decide_share", "core.perfpwr_ms", "lqn.evaluate_us", "checkpoint.mb", "scenario.step_self_us"}
		if !w.perfPwr {
			reached = append(reached, "core.generated_per_expansion", "core.search_ms")
		}
		if w.daemon {
			reached = append(reached, "serve.checkpoint_share", "serve.state_get_us", "provenance.bytes_per_window")
		}
		for _, name := range reached {
			if !(rep.Metrics[name].Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, rep.Metrics[name].Value)
			}
		}

		// The span file: window self time plus its children is the window.
		raw, err := os.ReadFile(filepath.Join(l.out, "trace-"+w.name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		for _, ln := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
			var s span
			if err := json.Unmarshal(ln, &s); err != nil {
				t.Fatalf("%s: bad span line %q: %v", w.name, ln, err)
			}
			spans = append(spans, s)
		}
		self := selfTimes(spans)
		roots := 0
		for _, s := range spans {
			if s.Name != "window" && s.Name != "mirror.window" {
				continue
			}
			roots++
			covered := self[s.ID]
			for _, c := range spans {
				if c.Parent == s.ID && c.EndNS <= s.EndNS {
					covered += c.EndNS - c.StartNS
				}
			}
			if covered != s.EndNS-s.StartNS {
				t.Fatalf("%s: window %d: self + children = %d ns, span is %d ns", w.name, s.Window, covered, s.EndNS-s.StartNS)
			}
		}
		if roots == 0 {
			t.Errorf("%s: no window spans in the trace file", w.name)
		}
	}
	if after, _ := filepath.Glob(filepath.Join(l.build, "run-*")); len(after) > len(before) {
		t.Errorf("scratch directories left behind: %v (before the run: %v)", after, before)
	}
}

// The contract's flags arrive as "--flag value" pairs, --trace included.
func TestDriverFlagForm(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "serve-ops", "--seed", "9", "--seconds", "12", "--trace", "1"}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if o.workloads != "serve-ops" || o.seed != 9 || o.seconds != 12 || o.trace != 1 {
		t.Fatalf("parsed %+v", o)
	}
	if _, err := parseFlags([]string{"--trace", "2"}, &bytes.Buffer{}); err == nil {
		t.Fatal("--trace 2 accepted")
	}
}

// Same seed, same inputs; another seed, other inputs.
func TestSeedMakesTheInputs(t *testing.T) {
	spec := workloads[0]
	e, err := newEnv(spec, envOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := makeRates(e.lab, 3, 20), makeRates(e.lab, 3, 20), makeRates(e.lab, 4, 20)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same inputs")
	}
}
