//go:build race

package chip

// raceEnabled reports whether this test binary was built with the race
// detector, under which sync.Pool drops a random quarter of its Puts.
const raceEnabled = true
