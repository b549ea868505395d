package checkpoint_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/mistralcloud/mistral/internal/checkpoint"
	"github.com/mistralcloud/mistral/internal/experiments"
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
	rp, err := experiments.Recipe{Lab: realRecipe.Lab, Strategy: "Perf-Pwr"}.Build(strategy.MistralConfig{}, scenario.RunConfig{})
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
	envelope := `{"schema":"` + checkpoint.Schema + `",`
	for _, confused := range []string{
		`"scenario":null}`,
		`"scenario":[]}`,
		`"scenario":"v3"}`,
		`"scenario":{"schema":7}}`,
		`"scenario":{"result":[],"testbed":0}}`,
		`"lab":7,"scenario":{}}`,
		`"workers":"one","scenario":{}}`,
		`"scenario":{"decider":{"eval":{"hits":"many"}},"history":{"series":{}}}}`,
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
