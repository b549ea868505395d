package testbed

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/app"
	"github.com/mistralcloud/mistral/internal/cluster"
	"github.com/mistralcloud/mistral/internal/fault"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// phaseGoldenCases are the one-step plans whose request-level transients
// TestRequestLevelPhaseGolden pins: one per action kind the DES models.
// zoned selects zonedSetup (two zones, DVFS-capable hosts) over setup.
var phaseGoldenCases = []struct {
	name  string
	zoned bool
	step  func(t *testing.T, cat *cluster.Catalog, cfg *cluster.Config) cluster.Action
}{
	{"increase-cpu", false, func(*testing.T, *cluster.Catalog, *cluster.Config) cluster.Action {
		return cluster.Action{Kind: cluster.ActionIncreaseCPU, VM: "rubis1-db-0", DeltaCPUPct: 20}
	}},
	{"decrease-cpu", false, func(*testing.T, *cluster.Catalog, *cluster.Config) cluster.Action {
		return cluster.Action{Kind: cluster.ActionDecreaseCPU, VM: "rubis1-db-0", DeltaCPUPct: 20}
	}},
	{"add-replica", false, func(t *testing.T, cat *cluster.Catalog, cfg *cluster.Config) cluster.Action {
		return cluster.Action{Kind: cluster.ActionAddReplica, VM: "rubis1-app-1", Host: roomyHost(t, cat, *cfg, "rubis1-app-0"), CPUPct: 30}
	}},
	{"remove-replica", false, func(t *testing.T, cat *cluster.Catalog, cfg *cluster.Config) cluster.Action {
		cfg.Place("rubis1-app-1", roomyHost(t, cat, *cfg, "rubis1-app-0"), 30)
		return cluster.Action{Kind: cluster.ActionRemoveReplica, VM: "rubis1-app-1"}
	}},
	{"migrate", false, func(t *testing.T, cat *cluster.Catalog, cfg *cluster.Config) cluster.Action {
		return cluster.Action{Kind: cluster.ActionMigrate, VM: "rubis1-db-0", Host: feasibleDst(t, cat, *cfg, "rubis1-db-0")}
	}},
	{"wan-migrate", true, func(*testing.T, *cluster.Catalog, *cluster.Config) cluster.Action {
		return cluster.Action{Kind: cluster.ActionWANMigrate, VM: "rubis1-db-0", Host: "h3"}
	}},
	{"set-dvfs", true, func(*testing.T, *cluster.Catalog, *cluster.Config) cluster.Action {
		return cluster.Action{Kind: cluster.ActionSetDVFS, Host: "h0", Freq: 0.6}
	}},
}

// roomyHost is the first powered-on host other than vm's with room for a
// 30% replica.
func roomyHost(t *testing.T, cat *cluster.Catalog, cfg cluster.Config, vm cluster.VMID) string {
	t.Helper()
	p, _ := cfg.PlacementOf(vm)
	for _, h := range cfg.ActiveHosts() {
		spec, _ := cat.Host(h)
		if h != p.Host && cfg.AllocatedCPU(h)+30 <= spec.UsableCPUPct && len(cfg.VMsOnHost(h)) < spec.MaxVMs {
			return h
		}
	}
	t.Fatal("no host with room for a replica")
	return ""
}

// TestRequestLevelPhaseGolden pins what each action kind does to the
// request-level DES, applied and failed mid-flight: one warm-up minute, the
// one-step plan, then 2-minute windows until the testbed is idle plus one
// more, each window's measurements written to testdata/phases/ with %.9g.
// `go test ./internal/testbed/ -run TestRequestLevelPhaseGolden -update`
// rewrites them, only for a change meant to move a transient.
func TestRequestLevelPhaseGolden(t *testing.T) {
	for _, c := range phaseGoldenCases {
		for _, outcome := range []string{"applied", "failed"} {
			t.Run(c.name+"-"+outcome, func(t *testing.T) {
				var (
					cat  *cluster.Catalog
					apps []*app.Spec
					cfg  cluster.Config
				)
				if c.zoned {
					cat, apps, cfg = zonedSetup(t)
				} else {
					cat, apps, cfg = setup(t, 4, "rubis1", "rubis2")
				}
				a := c.step(t, cat, &cfg)
				opts := noiseless(ModeRequestLevel)
				if outcome == "failed" {
					opts = faulty(ModeRequestLevel, fault.Options{Seed: 3, ActionFailRate: 1})
				}
				tb, err := New(cat, apps, cfg, map[string]float64{"rubis1": 40, "rubis2": 30}, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tb.MeasureWindow(time.Minute); err != nil {
					t.Fatal(err)
				}
				rep, err := tb.Execute([]cluster.Action{a})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				st := rep.Steps[0]
				fmt.Fprintf(&buf, "%s %s planned=%v realized=%v\n", st.Action, st.Status, st.Planned, st.Realized)
				for i := 0; i < 10; i++ {
					idle := !tb.Busy()
					w, err := tb.MeasureWindow(tb.Now() + 2*time.Minute)
					if err != nil {
						t.Fatal(err)
					}
					writeWindow(&buf, w)
					if idle {
						break
					}
				}
				checkGolden(t, filepath.Join("testdata", "phases", c.name+"-"+outcome+".golden"), buf.Bytes())
			})
		}
	}
}

// writeWindow renders one request-level window, maps in sorted key order.
func writeWindow(buf *bytes.Buffer, w Window) {
	fmt.Fprintf(buf, "window %v-%v watts=%.9g\n", w.From, w.To, w.Watts)
	for _, k := range sortedKeys(w.RTSec) {
		fmt.Fprintf(buf, "  rt %s %.9g completed=%d\n", k, w.RTSec[k], w.Completed[k])
	}
	for _, k := range sortedKeys(w.HostUtil) {
		fmt.Fprintf(buf, "  util %s %.9g\n", k, w.HostUtil[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
