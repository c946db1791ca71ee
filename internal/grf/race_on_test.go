//go:build race

package grf

// raceEnabled reports whether this test binary was built with the race
// detector. The pruned-pair speedup gate skips under it: wall-clock
// ratios are meaningless with the ~10x race instrumentation slowdown.
const raceEnabled = true
