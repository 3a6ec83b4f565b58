// Package native provides the real (wall-clock) parallel incremental
// engine: the stateful Session, a mutable graph.Store plus SoA state
// arrays, repaired after each batch and propagated by LIFO worklists
// with work stealing. It serves both
// algorithm families — monotonic selection (tag / reset / re-gather
// repair) and accumulative deltas (contribution cancelling) — and
// offers Ligra-o's frontier-synchronous rounds as a second propagation
// order over the same store, repair and dependency forest, for the
// paper's Fig 14 comparison on an actual machine.
package native

import "runtime"

// Config controls a native run.
type Config struct {
	// Workers defaults to GOMAXPROCS.
	Workers int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}
