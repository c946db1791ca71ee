//go:build race

package vmath

// raceEnabled reports whether this test binary was built with the race
// detector, which leaves the kernel out (exp_other.go):
// TestActiveExpKernel then requires the math.Exp loop.
const raceEnabled = true
