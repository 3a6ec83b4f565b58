//go:build race

package replica

// raceEnabled: the race detector is on, and sync.Pool drops buffers at
// random, so allocation counts are not exact.
const raceEnabled = true
