package tdgraph

import (
	"fmt"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/native"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// nativeBackend is the Session's engine: a mutable hybrid store with
// O(degree) updates, driven by the stateful incremental native engine
// (monotonic algorithms) or the parallel delta engine over sealed views
// (accumulative algorithms). No CSR rebuild happens per batch, and every
// view derived from the engine — the sealed snapshot, the monotonic
// path's state mirror and counter snapshot — follows one rule: stale
// after a mutation, rebuilt by the first reader. A caller that applies
// batches and reads nothing (serve.Pipeline) pays for none of them.
type nativeBackend struct {
	a     algo.Algorithm
	cfg   native.Config
	store *graph.Store

	mono *native.Session       // monotonic path (owns store's state arrays)
	acc  algo.AccumulativeAlgo // accumulative path

	sealed *graph.Snapshot  // lazy immutable view, nil after mutation
	state  []float64        // mirror of mono's states (nil until first read), or authoritative (acc)
	col    *stats.Collector // snapshot of mono's counters, nil until the first mutation
	stale  bool             // mono mutated since state and col were filled
}

// newNativeBackend builds the backend over st with the given worker
// count (8 when not positive). A nil warm bootstraps the fixpoint from
// scratch; non-nil states (a restored checkpoint) are kept verbatim and
// must be converged for st's graph. st may still be loading
// (graph.StartStoreFromEdges or StartStoreFromSnapshot): the monotonic
// bootstrap reads no store, only rows, st's out-edges from that loader,
// and so runs while both directions are placed. loaded, the load's
// wait, is called before st is read and before returning.
func newNativeBackend(a algo.Algorithm, st *graph.Store, rows *graph.Rows, loaded func(), warm []float64, workers int) (*nativeBackend, error) {
	defer loaded()
	if workers <= 0 {
		workers = 8
	}
	nb := &nativeBackend{a: a, cfg: native.Config{Workers: workers}, store: st}
	switch alg := a.(type) {
	case algo.MonotonicAlgo:
		s, err := native.NewSessionFromRows(alg, st, rows, warm, nb.cfg)
		if err != nil {
			return nil, err
		}
		nb.mono = s
	case algo.AccumulativeAlgo:
		loaded() // only the monotonic bootstrap runs on rows alone
		nb.acc = alg
		if warm == nil {
			nb.state = algo.Reference(a, nb.snapshot())
		} else {
			if len(warm) != st.NumVertices() {
				return nil, fmt.Errorf("tdgraph: %d states for %d vertices", len(warm), st.NumVertices())
			}
			nb.state = warm
		}
	default:
		return nil, fmt.Errorf("tdgraph: %s implements neither MonotonicAlgo nor AccumulativeAlgo", a.Name())
	}
	return nb, nil
}

// apply mutates the graph by one batch and repairs the states. It may
// panic (algorithm code); the Session wraps it in its recover barrier.
func (nb *nativeBackend) apply(batch []Update) ApplyResult {
	if nb.mono != nil {
		// Marked before the engine runs, so a panic mid-batch still
		// leaves the views stale for healAfterPanic.
		nb.sealed, nb.stale = nil, true
		return nb.mono.ApplyBatch(batch)
	}
	// Accumulative repair needs the pre-batch out-edges to cancel old
	// contributions, so seal before mutating.
	oldG := nb.snapshot()
	res := nb.store.Apply(batch)
	nb.sealed = nil
	newG := nb.snapshot()
	nb.state = native.Accumulative(nb.acc, oldG, newG, nb.state, res, nb.cfg)
	return res
}

// refresh refills the monotonic path's derived views if a mutation
// outdated them: the counter snapshot, and the state mirror once a
// reader has built it. The state buffer is reused, so a slice handed out
// by states() stays valid exactly until the next mutation's first read.
func (nb *nativeBackend) refresh() {
	if nb.stale {
		if nb.state != nil {
			nb.state = nb.mono.StatesInto(nb.state)
		}
		nb.col = nb.mono.Metrics()
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
	if nb.state == nil && nb.mono != nil {
		nb.state = nb.mono.StatesCopy()
	}
	return nb.state
}

// stateView returns the state count and a reader of state v: what a
// checkpoint save streams. It reads the engine's own states while no
// mirror exists, so a save never builds one.
func (nb *nativeBackend) stateView() (int, func(int) float64) {
	if nb.mono != nil && nb.state == nil {
		return nb.mono.NumVertices(), func(v int) float64 { return nb.mono.State(graph.VertexID(v)) }
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
	if nb.mono != nil {
		nb.stale = true
		nb.mono.Recompute()
		return
	}
	nb.state = algo.Reference(nb.a, nb.snapshot())
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

// close parks the monotonic engine's worker pool.
func (nb *nativeBackend) close() {
	if nb.mono != nil {
		nb.mono.Close()
	}
}
