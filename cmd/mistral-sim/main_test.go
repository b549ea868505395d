package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSLOExit runs the CI gate flag over the paper's day (195 windows, two
// applications): fault-free it passes, and with faults, rollback and the
// guard it fails naming the objectives the faults exhaust.
func TestSLOExit(t *testing.T) {
	for _, c := range []struct {
		name  string
		args  []string
		pages []string
	}{
		{"clean", []string{"-apps", "2", "-slo-exit"}, nil},
		{"faults", []string{"-apps", "2", "-zones", "2", "-fault-rate", "0.3", "-exec-policy", "rollback", "-guard", "-slo-exit"},
			[]string{"degraded-burn", "guard-reject"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(c.args, &stdout, &stderr)
			if c.pages == nil {
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("-slo-exit passed a faulted day:\n%s", stderr.String())
			}
			for _, name := range c.pages {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("error %q does not name %s", err, name)
				}
			}
		})
	}
}
