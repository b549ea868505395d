//go:build race

package testbed

// raceEnabled relaxes allocation ceilings: under the race detector sync.Pool
// drops a share of what it is handed, so pooled scratch gets reallocated.
const raceEnabled = true
