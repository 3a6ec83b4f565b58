package tdgraph

import (
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/native"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// nativeBackend is the Session's engine: a mutable hybrid store with
// O(degree) updates, driven by the stateful incremental native engine
// for either algorithm family. No CSR rebuild happens per batch, and
// every view derived from the engine — the sealed snapshot, the state
// mirror and counter snapshot — follows one rule: stale after a
// mutation, rebuilt by the first reader. A caller that applies batches
// and reads nothing (serve.Pipeline) pays for none of them.
type nativeBackend struct {
	store *graph.Store
	sess  *native.Session // owns store's state arrays

	sealed *graph.Snapshot  // lazy immutable view, nil after mutation
	state  []float64        // mirror of sess's states, nil until first read
	col    *stats.Collector // snapshot of sess's counters, nil until the first mutation
	stale  bool             // sess mutated since state and col were filled
}

// newNativeBackend builds the backend over st with the given worker
// count (8 when not positive). A nil warm bootstraps the fixpoint from
// scratch; non-nil states (a restored checkpoint) are kept verbatim and
// must be converged for st's graph. st may still be loading
// (graph.StartStoreFromEdges or StartStoreFromSnapshot): the bootstrap
// reads no store, only rows, st's out-edges from that loader, and so
// runs while both directions are placed. loaded, the load's wait, is
// called before st is read and before returning.
func newNativeBackend(a algo.Algorithm, st *graph.Store, rows *graph.Rows, loaded func(), warm []float64, workers int) (*nativeBackend, error) {
	defer loaded()
	if workers <= 0 {
		workers = 8
	}
	s, err := native.NewSessionFromRows(a, st, rows, warm, native.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &nativeBackend{store: st, sess: s}, nil
}

// apply mutates the graph by one batch and repairs the states. It may
// panic (algorithm code); the Session wraps it in its recover barrier.
// The views are marked stale before the engine runs, so a panic
// mid-batch still leaves them stale for healAfterPanic.
func (nb *nativeBackend) apply(batch []Update) ApplyResult {
	nb.sealed, nb.stale = nil, true
	return nb.sess.ApplyBatch(batch)
}

// refresh refills the derived views if a mutation outdated them: the
// counter snapshot, and the state mirror once a reader has built it.
// The state buffer is reused, so a slice handed out by states() stays
// valid exactly until the next mutation's first read.
func (nb *nativeBackend) refresh() {
	if nb.stale {
		if nb.state != nil {
			nb.state = nb.sess.StatesInto(nb.state)
		}
		nb.col = nb.sess.Metrics()
		nb.stale = false
	}
}

func (nb *nativeBackend) snapshot() *Snapshot {
	if nb.sealed == nil {
		nb.sealed = nb.store.Seal()
	}
	return nb.sealed
}

func (nb *nativeBackend) numVertices() int { return nb.store.NumVertices() }
func (nb *nativeBackend) numEdges() int    { return nb.store.NumEdges() }

// states returns the current state vector, aliased until the next
// apply or recompute.
func (nb *nativeBackend) states() []float64 {
	nb.refresh()
	if nb.state == nil {
		nb.state = nb.sess.StatesCopy()
	}
	return nb.state
}

// stateView returns the state count and a reader of state v: what a
// checkpoint save streams. It reads the engine's own states while no
// mirror exists, so a save never builds one.
func (nb *nativeBackend) stateView() (int, func(int) float64) {
	if nb.state == nil {
		return nb.sess.NumVertices(), func(v int) float64 { return nb.sess.State(graph.VertexID(v)) }
	}
	state := nb.states()
	return len(state), func(v int) float64 { return state[v] }
}

func (nb *nativeBackend) metrics() *stats.Collector {
	nb.refresh()
	return nb.col
}

// recompute replaces the states with the from-scratch fixpoint on the
// current graph (may panic — algorithm code).
func (nb *nativeBackend) recompute() {
	nb.stale = true
	nb.sess.Recompute()
}

// padStates forces the state vector to the graph's vertex count, zero-
// extending or truncating it, without running any algorithm code: the
// last-resort heal when recompute itself panics.
func (nb *nativeBackend) padStates() {
	state, n := nb.states(), nb.store.NumVertices()
	if len(state) > n {
		state = state[:n]
	}
	for len(state) < n {
		state = append(state, 0)
	}
	nb.state = state
}

// close parks the engine's worker pool.
func (nb *nativeBackend) close() { nb.sess.Close() }
