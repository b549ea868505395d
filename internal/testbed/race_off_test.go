//go:build !race

package testbed

const raceEnabled = false
