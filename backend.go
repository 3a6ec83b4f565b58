package tdgraph

import (
	"fmt"
	"io"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/core"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/native"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// engineBackend is the contract between a Session and its processing
// engine: who owns the graph, how batches mutate it, and how the states
// are repaired. Two implementations exist — simBackend (immutable
// snapshots rebuilt per batch, feeding the functional/simulated engines)
// and nativeBackend (mutable hybrid store + incremental native engine,
// the production path). The Session's durability, validation, and
// robustness machinery is backend-agnostic: a checkpoint written under
// one backend restores under the other.
type engineBackend interface {
	// apply mutates the graph by one batch and repairs the states. It may
	// panic (algorithm or builder code); the Session wraps it in its
	// recover barrier. The returned result is owned by the caller; the
	// float is the simulated cycle count (zero unless simulating).
	apply(batch []Update) (ApplyResult, float64)
	// metrics returns the counters of the last apply, nil before the
	// first one.
	metrics() *stats.Collector
	// snapshot returns the current immutable graph view. The native
	// backend seals lazily and caches until the next mutation.
	snapshot() *Snapshot
	// writeGraph streams the current graph in the snapshot binary format:
	// graph.BinarySize(numVertices(), numEdges()) bytes, nothing sealed.
	writeGraph(w io.Writer) error
	numVertices() int
	numEdges() int
	// states returns the current state vector, aliased until the next
	// apply/recompute.
	states() []float64
	// recompute replaces the states with the from-scratch fixpoint on the
	// current graph (may panic — algorithm code).
	recompute()
	// padStates forces the state vector to the graph's vertex count
	// without running any algorithm code: the last-resort heal when
	// recompute itself panics.
	padStates()
	// close releases engine resources (the native worker pool). The
	// backend must not be used afterwards.
	close()
}

// simBackend is the snapshot-per-batch path: a Builder materialises an
// immutable CSR snapshot after every batch and the functional or
// simulated engines repair states between the old and new snapshots.
type simBackend struct {
	opt   SessionOptions
	a     algo.Algorithm
	b     *graph.Builder
	snap  *graph.Snapshot
	state []float64
	col   *stats.Collector
}

func (sb *simBackend) apply(batch []Update) (ApplyResult, float64) {
	oldG := sb.snap
	res := sb.b.Apply(batch)
	newG := sb.b.Snapshot()

	col := stats.NewCollector()
	var m *sim.Machine
	ropt := engine.Options{Cores: sb.opt.Cores, Collector: col}
	if sb.opt.Simulate {
		cfg := sim.ScaledConfig()
		if sb.opt.Cores <= cfg.Cores {
			cfg.Cores = sb.opt.Cores
		}
		m = sim.New(cfg)
		ropt.Machine = m
		ropt.Layout = engine.LayoutOptions{TDGraph: sb.opt.Engine == EngineTopologyDriven, Alpha: 0.005}
	}
	rt := engine.NewRuntime(sb.a, oldG, newG, sb.state, ropt)
	var sys engine.System
	switch sb.opt.Engine {
	case EngineBaseline:
		sys = engine.NewBaseline(engine.LigraO(), rt)
	default:
		sys = core.New(core.DefaultConfig(), rt)
	}
	sys.Process(res)
	sb.state = rt.S
	sb.snap = newG
	sb.col = col
	var cycles float64
	if m != nil {
		cycles = m.Time()
	}
	return res, cycles
}

func (sb *simBackend) metrics() *stats.Collector { return sb.col }
func (sb *simBackend) snapshot() *Snapshot       { return sb.snap }
func (sb *simBackend) numVertices() int          { return sb.b.NumVertices() }
func (sb *simBackend) numEdges() int             { return sb.b.NumEdges() }
func (sb *simBackend) states() []float64         { return sb.state }

func (sb *simBackend) writeGraph(w io.Writer) error { return sb.snap.WriteBinary(w) }

func (sb *simBackend) recompute() {
	// Resync first: after a recovered panic the builder holds a
	// consistent graph (its mutations are per-update, not partial) but
	// the snapshot may be stale.
	sb.snap = sb.b.Snapshot()
	sb.state = algo.Reference(sb.a, sb.snap)
}

func (sb *simBackend) padStates() { sb.state = padTo(sb.state, sb.snap.NumVertices) }

// padTo truncates or zero-extends state to exactly n entries.
func padTo(state []float64, n int) []float64 {
	if len(state) > n {
		return state[:n]
	}
	for len(state) < n {
		state = append(state, 0)
	}
	return state
}

func (sb *simBackend) close() {}

// nativeBackend is the production path: a mutable hybrid store with
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
	state  []float64        // mirror of mono's states, or authoritative (acc)
	col    *stats.Collector // snapshot of mono's counters, nil until the first mutation
	stale  bool             // mono mutated since state and col were filled
}

// newNativeBackend builds the backend over st. A nil warm bootstraps the
// fixpoint from scratch; non-nil states (a restored checkpoint) are kept
// verbatim and must be converged for st's graph.
func newNativeBackend(a algo.Algorithm, st *graph.Store, warm []float64, opt SessionOptions) (*nativeBackend, error) {
	nb := &nativeBackend{a: a, cfg: native.Config{Workers: opt.Cores}, store: st}
	switch alg := a.(type) {
	case algo.MonotonicAlgo:
		if warm == nil {
			nb.mono = native.NewSession(alg, st, nb.cfg)
		} else {
			s, err := native.NewSessionFromState(alg, st, warm, nb.cfg)
			if err != nil {
				return nil, err
			}
			nb.mono = s
		}
		nb.state = nb.mono.StatesCopy()
	case algo.AccumulativeAlgo:
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

func (nb *nativeBackend) apply(batch []Update) (ApplyResult, float64) {
	if nb.mono != nil {
		// Marked before the engine runs, so a panic mid-batch still
		// leaves the views stale for healAfterPanic.
		nb.sealed, nb.stale = nil, true
		return nb.mono.ApplyBatch(batch), 0
	}
	// Accumulative repair needs the pre-batch out-edges to cancel old
	// contributions, so seal before mutating.
	oldG := nb.snapshot()
	res := nb.store.Apply(batch)
	nb.sealed = nil
	newG := nb.snapshot()
	nb.state = native.Accumulative(nb.acc, oldG, newG, nb.state, res, nb.cfg)
	return res, 0
}

// refresh refills the monotonic path's derived views if a mutation
// outdated them. The state buffer is reused, so a slice handed out by
// states() stays valid exactly until the next mutation's first read.
func (nb *nativeBackend) refresh() {
	if nb.stale {
		nb.state = nb.mono.StatesInto(nb.state)
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

func (nb *nativeBackend) writeGraph(w io.Writer) error { return nb.store.WriteBinary(w) }

func (nb *nativeBackend) numVertices() int { return nb.store.NumVertices() }
func (nb *nativeBackend) numEdges() int    { return nb.store.NumEdges() }

func (nb *nativeBackend) states() []float64 {
	nb.refresh()
	return nb.state
}

func (nb *nativeBackend) metrics() *stats.Collector {
	nb.refresh()
	return nb.col
}

func (nb *nativeBackend) recompute() {
	if nb.mono != nil {
		nb.stale = true
		nb.mono.Recompute()
		return
	}
	nb.state = algo.Reference(nb.a, nb.snapshot())
}

func (nb *nativeBackend) padStates() {
	nb.refresh() // copies raw state words; runs no algorithm code
	nb.state = padTo(nb.state, nb.store.NumVertices())
}

func (nb *nativeBackend) close() {
	if nb.mono != nil {
		nb.mono.Close()
	}
}
