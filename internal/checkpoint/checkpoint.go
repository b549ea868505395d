// Package checkpoint is the on-disk envelope around a scenario engine
// snapshot: the engine state itself plus the experiments.Recipe (lab
// options, strategy, fault profile, execution policy, guard, Mistral
// knobs) a fresh
// process rebuilds an identical environment from before restoring into it.
// New and File.Recipe are the one conversion between the two, so a batch
// run can be resumed by the daemon and vice versa.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/mistralcloud/mistral/internal/core"
	"github.com/mistralcloud/mistral/internal/experiments"
	"github.com/mistralcloud/mistral/internal/scenario"
	"github.com/mistralcloud/mistral/internal/strategy"
	"github.com/mistralcloud/mistral/internal/testbed"
)

// Schema identifies the envelope format; Read refuses any other value.
const Schema = "mistral.checkpoint-file/v1"

// File is a complete checkpoint: the recipe to rebuild the environment and
// the engine snapshot to restore into it. The recipe fields record exactly
// what the writing process was built from — a reader reconstructs the lab,
// strategy, and fault plane from them rather than trusting its own flags.
type File struct {
	Schema   string `json:"schema"`
	Strategy string `json:"strategy"`
	// Deprecated: Workers is ignored; it remains only because bench/ sets it.
	Workers int `json:"workers"`
	// Lab holds the options as given to experiments.NewLab (pre-default):
	// rebuilding applies the same defaulting the original construction did.
	Lab       experiments.LabOptions `json:"lab"`
	FaultRate float64                `json:"fault_rate,omitempty"`
	FaultSeed uint64                 `json:"fault_seed,omitempty"`
	// ExecPolicy records the testbed execution policy ("fail-forward" when
	// empty, for checkpoints written before the field existed).
	ExecPolicy string `json:"exec_policy,omitempty"`
	// Guard records whether the admission guard was enabled; the engine
	// snapshot carries its state when true.
	Guard bool `json:"guard,omitempty"`
	// The recipe's Mistral knobs, each as given (pre-default) like Lab and
	// absent while zero, so a file that sets none keeps its bytes.
	L2Band        float64            `json:"l2_band,omitempty"`
	PruneFraction float64            `json:"prune_fraction,omitempty"`
	TimePerChild  time.Duration      `json:"time_per_child_ns,omitempty"`
	MaxExpansions int                `json:"max_expansions,omitempty"`
	Scenario      *scenario.Snapshot `json:"scenario"`
}

// New wraps an engine snapshot and the recipe its environment was built
// from.
func New(rc experiments.Recipe, snap *scenario.Snapshot) *File {
	return &File{
		Schema:        Schema,
		Strategy:      rc.Strategy,
		Lab:           rc.Lab,
		FaultRate:     rc.FaultRate,
		FaultSeed:     rc.FaultSeed,
		ExecPolicy:    rc.ExecPolicy.String(),
		Guard:         rc.Guard,
		L2Band:        rc.Mistral.L2Band,
		PruneFraction: rc.Mistral.Search.PruneFraction,
		TimePerChild:  rc.Mistral.Search.TimePerChild,
		MaxExpansions: rc.Mistral.Search.MaxExpansions,
		Scenario:      snap,
	}
}

// Recipe is the recipe the file records.
func (f *File) Recipe() (experiments.Recipe, error) {
	exec, err := testbed.ParseExecPolicy(f.ExecPolicy)
	if err != nil {
		return experiments.Recipe{}, fmt.Errorf("checkpoint: %w", err)
	}
	return experiments.Recipe{
		Lab:        f.Lab,
		Strategy:   f.Strategy,
		FaultRate:  f.FaultRate,
		FaultSeed:  f.FaultSeed,
		ExecPolicy: exec,
		Guard:      f.Guard,
		Mistral: strategy.MistralConfig{L2Band: f.L2Band, Search: core.SearchOptions{
			PruneFraction: f.PruneFraction, TimePerChild: f.TimePerChild, MaxExpansions: f.MaxExpansions,
		}},
	}, nil
}

// Write atomically persists the checkpoint: the JSON lands in a temp file
// in the target directory and renames over path, so a crash mid-write
// never leaves a truncated checkpoint where a good one stood.
func Write(path string, f *File) error {
	if f.Schema == "" {
		f.Schema = Schema
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Read loads and validates a checkpoint file.
func Read(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(raw)
}

// Decode parses a checkpoint from its JSON bytes.
func Decode(raw []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("checkpoint: unsupported schema %q (want %q)", f.Schema, Schema)
	}
	if f.Scenario == nil {
		return nil, fmt.Errorf("checkpoint: no engine snapshot")
	}
	return &f, nil
}
