//go:build !race

package lqn

const raceEnabled = false
