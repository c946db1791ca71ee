//go:build !race

package vmath

// raceEnabled is false without the race detector; see race_on_test.go.
const raceEnabled = false
