package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStdoutGoldens pins the replay studies' stdout byte for byte: Figs.
// 8/9 and 10 and the ablations at full length, Table I and the fault and
// chaos sweeps with -quick, and the request-level measurements of Fig. 1
// and (with -quick) the Fig. 7 cost campaign. Every run is deterministic at
// the default seed.
// A change meant to move a table regenerates its golden with
// `go run ./cmd/mistral-exp ARGS > cmd/mistral-exp/testdata/NAME.golden`.
func TestStdoutGoldens(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"fig89", []string{"-run", "fig89"}},
		{"fig10", []string{"-run", "fig10"}},
		{"ablations", []string{"-run", "ablations"}},
		{"table1-quick", []string{"-run", "table1", "-quick"}},
		{"faultsweep-quick", []string{"-run", "faultsweep", "-quick"}},
		{"chaossweep-quick", []string{"-run", "chaossweep", "-quick"}},
		{"fig1", []string{"-run", "fig1"}},
		{"fig7m-quick", []string{"-run", "fig7m", "-quick"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if err := run(c.args, &stdout, &stderr); err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			if bytes.Equal(stdout.Bytes(), want) {
				return
			}
			got, wantLines := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
			for i := range max(len(got), len(wantLines)) {
				if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
					t.Fatalf("stdout differs from %s.golden at line %d:\ngot  %q\nwant %q", c.name, i+1, line(got, i), line(wantLines, i))
				}
			}
		})
	}
}

// line is lines[i], or "" past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
