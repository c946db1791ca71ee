//go:build race

package stats

// raceEnabled reports whether this test binary was built with the race
// detector, which leaves the normal-draw kernel out (norm_other.go):
// TestActiveNormKernel then requires the Go loop.
const raceEnabled = true
