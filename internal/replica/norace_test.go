//go:build !race

package replica

const raceEnabled = false
