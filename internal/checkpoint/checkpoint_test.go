package checkpoint_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/mistralcloud/mistral/internal/checkpoint"
	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/provenance"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// realRecipe is what realFile builds: a 1-app Perf-Pwr replay, its fault
// seed resolved to the lab's.
var realRecipe = experiments.Recipe{
	Lab:        experiments.LabOptions{NumApps: 1, Seed: 7},
	Strategy:   "perf-pwr",
	FaultSeed:  7,
	ExecPolicy: testbed.FailForward,
}

// realFile steps a small Perf-Pwr replay a few windows and wraps its engine
// snapshot in the envelope the binaries write.
func realFile(tb testing.TB) *checkpoint.File {
	tb.Helper()
	rp, err := experiments.Recipe{Lab: realRecipe.Lab, Strategy: "Perf-Pwr"}.Build(scenario.RunConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := rp.Engine.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	snap, err := rp.Engine.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return checkpoint.New(rp.Recipe, snap)
}

// leftovers lists the temp files Write may have left in dir.
func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, ".checkpoint-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// TestWriteReadRoundTrip writes and reads back the envelope a built replay
// makes, one without a schema (Write stamps it) and one from before the
// exec_policy field existed: each file survives byte for byte, and each
// reads back as the recipe it was built from.
func TestWriteReadRoundTrip(t *testing.T) {
	built := realFile(t)
	unstamped := *built
	unstamped.Schema = ""
	legacy := *built
	legacy.ExecPolicy = ""
	for _, tc := range []struct {
		name string
		file *checkpoint.File
	}{
		{"built", built},
		{"no schema", &unstamped},
		{"empty exec_policy", &legacy},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "ck.json")
		if err := checkpoint.Write(path, tc.file); err != nil {
			t.Fatal(err)
		}
		if tc.file.Schema != checkpoint.Schema {
			t.Errorf("%s: Write left schema %q, want %q", tc.name, tc.file.Schema, checkpoint.Schema)
		}
		got, err := checkpoint.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		back, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, back) {
			t.Errorf("%s: round trip is lossy:\nwrote: %s\nread:  %s", tc.name, want, back)
		}
		if rc, err := got.Recipe(); err != nil || !reflect.DeepEqual(rc, realRecipe) {
			t.Errorf("%s: Recipe() = %+v, %v; want %+v", tc.name, rc, err, realRecipe)
		}
		if tmps := leftovers(t, dir); len(tmps) != 0 {
			t.Errorf("%s: successful Write left %v behind", tc.name, tmps)
		}
	}
}

// TestWriteFailureLeavesNoTemp covers both ways a write can fail: the temp
// file cannot be created (the directory is not one), and it can but the
// rename over the target is refused (the target is a non-empty directory).
func TestWriteFailureLeavesNoTemp(t *testing.T) {
	f := realFile(t)
	dir := t.TempDir()

	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(filepath.Join(notDir, "ck.json"), f); err == nil {
		t.Error("Write into a path under a regular file succeeded")
	}

	target := filepath.Join(dir, "occupied")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Write(target, f); err == nil {
		t.Error("Write over a non-empty directory succeeded")
	}
	if tmps := leftovers(t, dir); len(tmps) != 0 {
		t.Errorf("failed Write left %v behind", tmps)
	}
}

func TestDecodeRefusals(t *testing.T) {
	f := realFile(t)
	f.Schema = checkpoint.Schema
	for _, tc := range []struct {
		name    string
		mutate  func(*checkpoint.File)
		wantErr string
	}{
		{"envelope schema", func(f *checkpoint.File) { f.Schema = "mistral.checkpoint-file/v0" }, "unsupported schema"},
		{"no scenario", func(f *checkpoint.File) { f.Scenario = nil }, "no engine snapshot"},
	} {
		bad := *f
		tc.mutate(&bad)
		raw, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		got, err := checkpoint.Decode(raw)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) || got != nil {
			t.Errorf("%s: Decode = %v, %v; want nil and an error containing %q", tc.name, got, err, tc.wantErr)
		}
	}
}

// FuzzDecode feeds Decode a real checkpoint, truncations of it and fields of
// the wrong JSON type: whatever arrives, it must not panic, and a File it
// returns is one a caller can restore from without a nil check.
func FuzzDecode(f *testing.F) {
	file := realFile(f)
	file.Schema = checkpoint.Schema
	raw, err := json.Marshal(file)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	for _, n := range []int{0, 1, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		f.Add(raw[:n])
	}
	knobbed := *file
	knobbed.L2Band, knobbed.PruneFraction, knobbed.TimePerChild, knobbed.MaxExpansions = 4, 0.2, 300*time.Microsecond, 1500
	if raw, err = json.Marshal(&knobbed); err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	envelope := `{"schema":"` + checkpoint.Schema + `",`
	for _, confused := range []string{
		`"scenario":null}`,
		`"scenario":[]}`,
		`"scenario":"v3"}`,
		`"scenario":{"schema":7}}`,
		`"scenario":{"result":[],"testbed":0}}`,
		`"lab":7,"scenario":{}}`,
		`"workers":"one","scenario":{}}`,
		`"l2_band":"wide","scenario":{}}`,
		`"prune_fraction":-1,"time_per_child_ns":1e99,"scenario":{}}`,
		`"scenario":{"decider":{"eval":{"hits":"many"}},"history":{"series":{}}}}`,
		// A v3 engine snapshot with the cost table and utility history v3
		// files carried.
		`"scenario":{"schema":"mistral.checkpoint/v3","result":{"Windows":[]},` +
			`"testbed":{"costs":{"rows":[{"kind":0,"tier":"app","entries":[{"Sessions":40,"Duration":0}]}]}},` +
			`"decider":{"l2":{"bands_set":true,"history":[{"utility":-1e9,"perf_rate":0,"pwr_rate":0}]},"l1":[]}}}`,
	} {
		f.Add([]byte(envelope + confused))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := checkpoint.Decode(data)
		if err != nil {
			if got != nil {
				t.Fatalf("Decode returned both a File and %v", err)
			}
			return
		}
		if got == nil || got.Scenario == nil || got.Schema != checkpoint.Schema {
			t.Fatalf("Decode accepted %q as %+v", data, got)
		}
	})
}

// knobRecipe is a Mistral replay on the 2-application lab with every knob
// a checkpoint records moved off its default.
var knobRecipe = experiments.Recipe{
	Lab:      experiments.LabOptions{NumApps: 2, Seed: 7},
	Strategy: "mistral",
	Mistral: strategy.MistralConfig{L2Band: 4, Search: core.SearchOptions{
		PruneFraction: 0.2, TimePerChild: 300 * time.Microsecond, MaxExpansions: 1500,
	}},
}

// recorded builds rc with a provenance recorder writing to prov, for the
// scenario's first hour (30 windows).
func recorded(t *testing.T, rc experiments.Recipe, prov *bytes.Buffer) *experiments.Replay {
	t.Helper()
	rp, err := rc.Build(scenario.RunConfig{Duration: time.Hour, Provenance: provenance.NewRecorder(prov)})
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// TestResumeWithKnobs runs knobRecipe to window 12, takes it through the
// file (New, Write, Read, Recipe, Build, Restore) and finishes the hour: the
// resumed run equals the uninterrupted one on every window log and on the
// provenance bytes. The knobs move decisions, so a file that dropped them
// would diverge: the same hour with default knobs does.
func TestResumeWithKnobs(t *testing.T) {
	const k = 12
	var fullProv, headProv, tailProv, defaultProv bytes.Buffer
	full := recorded(t, knobRecipe, &fullProv)
	if _, err := full.Engine.Run(); err != nil {
		t.Fatal(err)
	}

	head := recorded(t, knobRecipe, &headProv)
	for i := 0; i < k; i++ {
		if _, err := head.Engine.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := head.Engine.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := checkpoint.Write(path, checkpoint.New(head.Recipe, snap)); err != nil {
		t.Fatal(err)
	}
	file, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := file.Recipe()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rc.Mistral, knobRecipe.Mistral) {
		t.Fatalf("file records knobs %+v, want %+v", rc.Mistral, knobRecipe.Mistral)
	}
	tail := recorded(t, rc, &tailProv)
	if err := tail.Engine.Restore(file.Scenario); err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Engine.Run(); err != nil {
		t.Fatal(err)
	}

	want := full.Engine.Result().Windows
	if got := tail.Engine.Result().Windows; !reflect.DeepEqual(got, want) {
		t.Errorf("resumed windows diverge from the uninterrupted run (%d vs %d windows)", len(got), len(want))
	}
	if cat := append(headProv.Bytes(), tailProv.Bytes()...); !bytes.Equal(cat, fullProv.Bytes()) {
		t.Errorf("provenance diverges: uninterrupted %d bytes, head+tail %d", fullProv.Len(), len(cat))
	}

	defaults := knobRecipe
	defaults.Mistral = strategy.MistralConfig{}
	base := recorded(t, defaults, &defaultProv)
	if _, err := base.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base.Engine.Result().Windows, want) {
		t.Error("default knobs decide the hour as knobRecipe does; the resume check cannot tell a dropped knob")
	}
}

// TestEveryKnobIsRecordedOrRefused sets each field of strategy.MistralConfig
// (and of its core.SearchOptions) in turn on a recipe: Build refuses it, or
// the checkpoint carries it through New, JSON and File.Recipe unchanged. A
// field added later that does neither fails here, before it can steer a
// run the file does not describe.
func TestEveryKnobIsRecordedOrRefused(t *testing.T) {
	var leaves func(typ reflect.Type, prefix string, path []int)
	leaves = func(typ reflect.Type, prefix string, path []int) {
		for i := 0; i < typ.NumField(); i++ {
			fld := typ.Field(i)
			at := append(append([]int(nil), path...), i)
			if !fld.IsExported() {
				continue
			}
			name := prefix + fld.Name
			if fld.Type.Kind() == reflect.Struct {
				leaves(fld.Type, name+".", at)
				continue
			}
			rc := experiments.Recipe{Lab: knobRecipe.Lab, Strategy: "mistral"}
			v := reflect.ValueOf(&rc.Mistral).Elem().FieldByIndex(at)
			switch v.Kind() {
			case reflect.Float64:
				v.SetFloat(0.5)
			case reflect.Int, reflect.Int64:
				v.SetInt(3)
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Slice:
				v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			case reflect.Pointer:
				v.Set(reflect.New(v.Type().Elem()))
			default:
				t.Fatalf("%s: no test value for a %s", name, v.Kind())
			}
			t.Run(name, func(t *testing.T) {
				rp, err := rc.Build(scenario.RunConfig{})
				if err != nil {
					return // refused
				}
				snap, err := rp.Engine.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(checkpoint.New(rp.Recipe, snap))
				if err != nil {
					t.Fatal(err)
				}
				file, err := checkpoint.Decode(raw)
				if err != nil {
					t.Fatal(err)
				}
				back, err := file.Recipe()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(back.Mistral, rc.Mistral) {
					t.Errorf("Build accepts %s, but the checkpoint gives back %+v for %+v", name, back.Mistral, rc.Mistral)
				}
			})
		}
	}
	leaves(reflect.TypeOf(strategy.MistralConfig{}), "", nil)
}

// TestBadKnobsRefused reads each out-of-range knob from a checkpoint
// (Decode, File.Recipe) and requires Build to refuse it, naming the field.
// A file whose knobs are all zero carries no knob key at all.
func TestBadKnobsRefused(t *testing.T) {
	f := realFile(t)
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"l2_band", "prune_fraction", "time_per_child_ns", "max_expansions"} {
		if bytes.Contains(raw, []byte(`"`+key+`"`)) {
			t.Errorf("zero-knob checkpoint carries %s", key)
		}
	}
	for _, tc := range []struct {
		name  string
		set   func(*checkpoint.File)
		field string
	}{
		{"negative band", func(f *checkpoint.File) { f.L2Band = -1 }, "L2Band"},
		{"prune above 1", func(f *checkpoint.File) { f.PruneFraction = 1.5 }, "PruneFraction"},
		{"negative prune", func(f *checkpoint.File) { f.PruneFraction = -0.1 }, "PruneFraction"},
		{"negative time per child", func(f *checkpoint.File) { f.TimePerChild = -time.Microsecond }, "TimePerChild"},
		{"negative expansions", func(f *checkpoint.File) { f.MaxExpansions = -1 }, "MaxExpansions"},
	} {
		bad := *f
		tc.set(&bad)
		raw, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		file, err := checkpoint.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := file.Recipe()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Build(scenario.RunConfig{}); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Build = %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
	// JSON has no NaN or infinity; a recipe made in code can hold them.
	for _, band := range []float64{math.NaN(), math.Inf(1)} {
		rc := realRecipe
		rc.Mistral.L2Band = band
		if _, err := rc.Build(scenario.RunConfig{}); err == nil || !strings.Contains(err.Error(), "L2Band") {
			t.Errorf("band %v: Build = %v, want an error naming L2Band", band, err)
		}
	}
}
