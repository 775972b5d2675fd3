//go:build race

package cache

// raceEnabled reports whether the race detector is compiled in; allocation
// gates skip under it (instrumentation allocates).
const raceEnabled = true
