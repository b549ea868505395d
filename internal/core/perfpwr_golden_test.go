package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenWindows is how many control windows of the paper's traces each
// golden replays.
const goldenWindows = 30

// goldenLabs are the fixtures the Perf-Pwr goldens cover: the paper's two
// labs, plus a two-zone DVFS lab so the affinity arms, zone pins and
// tuneDVFS are pinned too.
var goldenLabs = []struct {
	name string
	opts experiments.LabOptions
}{
	{"2apps", experiments.LabOptions{NumApps: 2, Seed: 42}},
	{"4apps", experiments.LabOptions{NumApps: 4, Seed: 42}},
	{"2apps-dvfs-2zones", experiments.LabOptions{NumApps: 2, Seed: 42, Zones: 2, DVFSLevels: []float64{0.6, 0.8}}},
}

// perfPwrGolden replays the first goldenWindows windows of
// workload.PaperWorkloads(42, …) through every Perf-Pwr entry point on one
// shared evaluator (BeginWindow between windows, as the controller does) and
// renders one line per call: the ideal's fingerprint, the bits of its net
// rate, and the call's sweep-arm, cache-hit and cache-miss counts. Subset
// starts from the previous window's full ideal, so its base varies.
func perfPwrGolden(t *testing.T, opts experiments.LabOptions) []byte {
	t.Helper()
	lab, err := experiments.NewLab(opts)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := lab.NewEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eval.SetObserver(&obs.Observer{Metrics: reg})

	var out bytes.Buffer
	var last core.CacheStats
	var lastArms int64
	record := func(w int, call string, ideal core.Ideal, err error) {
		st := eval.CacheStats()
		arms := reg.CounterValue("perfpwr_sweep_arms_total")
		fmt.Fprintf(&out, "w=%02d %-22s", w, call)
		if err != nil {
			fmt.Fprintf(&out, " err=%q", err.Error())
		} else {
			fmt.Fprintf(&out, " fp=%s net=%016x", ideal.Config.Fingerprint(), math.Float64bits(ideal.Steady.NetRate()))
		}
		fmt.Fprintf(&out, " arms=%d hits=%d misses=%d\n", arms-lastArms, st.Hits-last.Hits, st.Misses-last.Misses)
		last, lastArms = st, arms
	}

	pools := hostPools(lab.AppNames, lab.Cat.HostNames())
	base := lab.Initial
	for w := 0; w < goldenWindows; w++ {
		eval.BeginWindow()
		last = core.CacheStats{} // BeginWindow flushed the counters
		rates := lab.Traces.At(time.Duration(w) * lab.Util.MonitoringInterval)

		full, fullErr := core.PerfPwr(eval, rates, core.PerfPwrOptions{})
		record(w, "PerfPwr", full, fullErr)
		for g, group := range lab.HostGroups() {
			ideal, err := core.PerfPwrSubset(eval, base, rates, group)
			record(w, fmt.Sprintf("PerfPwrSubset[%d]", g), ideal, err)
		}
		ideal, err := core.PerfPwrMeetingTargets(eval, rates)
		record(w, "PerfPwrMeetingTargets", ideal, err)
		ideal, err = core.PerfPwr(eval, rates, core.PerfPwrOptions{
			VMZonePins: core.VMZonePinsOf(lab.Cat, base)})
		record(w, "PerfPwr[pinned]", ideal, err)
		ideal, err = core.PerfPwr(eval, rates, core.PerfPwrOptions{AppHostPools: pools})
		record(w, "PerfPwr[pools]", ideal, err)

		if fullErr == nil {
			base = full.Config
		}
	}
	return out.Bytes()
}

// TestPerfPwrGolden pins every Perf-Pwr entry point to the committed
// goldens: ideals, net-rate bits, sweep arms and the
// evaluator's hit/miss counts must repeat exactly. Regenerate with
// `go test ./internal/core/ -run TestPerfPwrGolden -update` only when a
// change is meant to move decisions.
func TestPerfPwrGolden(t *testing.T) {
	for _, lab := range goldenLabs {
		lab := lab
		t.Run(lab.name, func(t *testing.T) {
			path := filepath.Join("testdata", "perfpwr_"+lab.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, perfPwrGolden(t, lab.opts), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			requireGolden(t, "perfpwr", perfPwrGolden(t, lab.opts), want)
		})
	}
}

// requireGolden fails the test at the first line where got departs from the
// golden file's contents.
func requireGolden(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", what, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", what, len(gl), len(wl))
}
