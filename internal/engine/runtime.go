package engine

import (
	"fmt"
	"math"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// Runtime is the shared incremental-execution state for processing one
// batch on one snapshot transition (OldG → G). Engines own the
// propagation discipline; the runtime owns everything they have in
// common: the state/parent/delta vectors, batch repair (§2.1's per-family
// steps), activation tracking, simulated-memory plumbing, and the paper's
// update metrics.
type Runtime struct {
	Algo algo.Algorithm
	Mono algo.MonotonicAlgo
	Acc  algo.AccumulativeAlgo

	// OldG is the pre-batch snapshot (needed by accumulative
	// contribution cancelling); G is the post-batch snapshot being
	// processed.
	OldG, G *graph.Snapshot

	// S is the functional state vector; engines must mutate it only
	// through WriteState so the update metrics stay correct.
	S []float64
	// Parent is the monotonic dependency tree: Parent[v] is the
	// in-neighbour whose propagation produced S[v], or -1.
	Parent []int32
	// Delta holds accumulative pending deltas.
	Delta []float64

	C *stats.Collector
	M *sim.Machine // nil: every port is a sim.NullPort
	L *Layout

	Ports  []sim.Port
	Chunks []graph.Chunk
	owner  []uint16

	// Activation state: a global flag array plus per-core lists.
	activeFlag []bool
	activeList [][]graph.VertexID

	// StateAddr is the state-address hook; the default indexes
	// Vertex_States_Array, VSCU overrides it to consult Coalesced_States.
	StateAddr func(v graph.VertexID) uint64
	// DeltaAddr is the pending-delta address hook: accumulative deltas
	// are vertex state in the paper's sense, so VSCU coalesces the hot
	// ones the same way.
	DeltaAddr func(v graph.VertexID) uint64

	writes   []uint32
	written  []graph.VertexID
	preBatch []float64

	// AccessCount, when non-nil, counts per-vertex state accesses
	// (reads + writes) — the raw data behind the paper's Fig 4(b)
	// frequency-skew observation. Enable with CountAccesses.
	AccessCount []uint32

	totalOutW []float64 // cached per-vertex total out-weight of G
}

// Options configures runtime construction.
type Options struct {
	// Machine is the simulated system; nil gives every core a
	// sim.NullPort, so the same calls compute states and model nothing.
	Machine *sim.Machine
	// Cores is the number of logical cores to partition over; defaults
	// to the machine's core count (or 1 without a machine).
	Cores int
	// Collector receives the metrics; required.
	Collector *stats.Collector
	// Layout options (TDGraph structures, metadata region).
	Layout LayoutOptions
}

// NewRuntime builds a runtime for processing a batch that transformed
// oldG into g. warmStates are the converged states of oldG (from the
// previous batch or the initial fixpoint); they are copied.
func NewRuntime(a algo.Algorithm, oldG, g *graph.Snapshot, warmStates []float64, opt Options) *Runtime {
	if opt.Collector == nil {
		opt.Collector = stats.NewCollector()
	}
	n := g.NumVertices
	r := &Runtime{
		Algo: a,
		OldG: oldG,
		G:    g,
		S:    make([]float64, n),
		C:    opt.Collector,
		M:    opt.Machine,
	}
	copy(r.S, warmStates)
	// Vertices added by the batch start at their no-contribution value.
	switch alg := a.(type) {
	case algo.MonotonicAlgo:
		r.Mono = alg
		for v := len(warmStates); v < n; v++ {
			r.S[v] = alg.InitialValue(graph.VertexID(v))
		}
	case algo.AccumulativeAlgo:
		r.Acc = alg
		for v := len(warmStates); v < n; v++ {
			r.S[v] = alg.Base(graph.VertexID(v))
		}
	default:
		panic(fmt.Sprintf("engine: algorithm %s has unknown family", a.Name()))
	}

	cores := opt.Cores
	if cores <= 0 {
		if opt.Machine != nil {
			cores = opt.Machine.NumCores()
		} else {
			cores = 1
		}
	}
	r.Chunks = graph.PartitionByEdges(g, cores)
	r.owner = make([]uint16, n)
	for ci, ch := range r.Chunks {
		for v := ch.Start; v < ch.End; v++ {
			r.owner[v] = uint16(ci)
		}
	}
	r.Ports = make([]sim.Port, cores)
	for i := range r.Ports {
		if opt.Machine != nil {
			r.Ports[i] = opt.Machine.Core(i % opt.Machine.NumCores())
		} else {
			r.Ports[i] = sim.NullPort{}
		}
	}
	if opt.Machine != nil {
		r.L = NewLayout(opt.Machine, g, opt.Layout)
	} else {
		r.L = &Layout{}
	}
	r.StateAddr = r.L.StateAddr
	r.DeltaAddr = r.L.DeltaAddr

	r.activeFlag = make([]bool, n)
	r.activeList = make([][]graph.VertexID, cores)
	r.writes = make([]uint32, n)
	r.preBatch = make([]float64, n)
	copy(r.preBatch, r.S)

	if r.Mono != nil {
		r.Parent = make([]int32, n)
		r.rebuildParents(warmStates)
	}
	if r.Acc != nil {
		r.Delta = make([]float64, n)
		r.totalOutW = make([]float64, n)
		for v := 0; v < n; v++ {
			r.totalOutW[v] = algo.TotalOutWeight(g, graph.VertexID(v))
		}
	}
	return r
}

// rebuildParents derives the dependency forest of the warm states.
// Parents are bookkeeping carried between batches by real systems;
// deriving them here is free of simulated cost by design. The forest
// must be acyclic, which value-matching against in-neighbours cannot
// guarantee when many vertices share equal values (CC labels, SSWP
// bottlenecks, mutual-support cycles) — so the parents are recorded
// during a propagation replay (algo.ReferenceWithParents), where a
// parent's final improvement always precedes its child's.
func (r *Runtime) rebuildParents(warm []float64) {
	for i := range r.Parent {
		r.Parent[i] = -1
	}
	if r.OldG == nil {
		return
	}
	_, parents := algo.ReferenceWithParents(r.Mono, r.OldG)
	copy(r.Parent, parents)
}

// OwnerOf returns the core index owning v's chunk.
func (r *Runtime) OwnerOf(v graph.VertexID) int { return int(r.owner[v]) }

// PortOf returns the port of v's owning core.
func (r *Runtime) PortOf(v graph.VertexID) sim.Port { return r.Ports[r.owner[v]] }

// Activate marks v active and enqueues it on its owner's list; p is the
// core performing the activation (it writes the Active_Vertices bit).
func (r *Runtime) Activate(v graph.VertexID, p sim.Port) {
	if r.activeFlag[v] {
		return
	}
	r.activeFlag[v] = true
	r.activeList[r.owner[v]] = append(r.activeList[r.owner[v]], v)
	r.C.Inc(stats.CtrActivations)
	p.Write(r.L.ActiveAddr(v), 1)
}

// TakeActive removes and returns core ci's pending active vertices,
// clearing their flags. The caller processes exactly this set in the
// current round; new activations land in the next round's list.
func (r *Runtime) TakeActive(ci int) []graph.VertexID {
	l := r.activeList[ci]
	r.activeList[ci] = nil
	for _, v := range l {
		r.activeFlag[v] = false
	}
	return l
}

// HasActive reports whether any core has pending active vertices.
func (r *Runtime) HasActive() bool {
	for _, l := range r.activeList {
		if len(l) > 0 {
			return true
		}
	}
	return false
}

// CountUpdateOp records one vertex-state update operation — the unit the
// paper's Fig 3(b)/Fig 11 count. Every application of the algorithm's
// update function to a destination state (Ligra's writeMin per processed
// edge, TDGraph's TD_UPDATE_STATE per fetched edge) is one operation,
// whether or not it changes the stored value; engines call this once per
// edge application.
func (r *Runtime) CountUpdateOp() { r.C.Inc(stats.CtrStateUpdates) }

// ReadState models a load of v's state by port p (stalling when stall is
// true, hardware-prefetched otherwise) and returns the functional value.
func (r *Runtime) ReadState(v graph.VertexID, p sim.Port, stall bool) float64 {
	if r.AccessCount != nil {
		r.AccessCount[v]++
	}
	if stall {
		p.Read(r.StateAddr(v), StateBytes)
	} else {
		p.Prefetch(r.StateAddr(v), StateBytes)
	}
	return r.S[v]
}

// WriteState stores val as v's state through port p, counting the update.
// Engines must funnel every state mutation through here.
func (r *Runtime) WriteState(v graph.VertexID, val float64, p sim.Port, stall bool) {
	if r.AccessCount != nil {
		r.AccessCount[v]++
	}
	if r.writes[v] == 0 {
		r.written = append(r.written, v)
	}
	r.writes[v]++
	r.S[v] = val
	r.C.Inc(stats.CtrStateWrites)
	if stall {
		p.Write(r.StateAddr(v), StateBytes)
	} else {
		p.PrefetchWrite(r.StateAddr(v), StateBytes)
	}
}

// WriteStateQuiet records a state update (functional value + metrics)
// without touching simulated memory. Schemes with hardware write
// combining (PHI's commutative scatter-update coalescing) use it and
// issue the merged memory write themselves when their buffer drains.
func (r *Runtime) WriteStateQuiet(v graph.VertexID, val float64) {
	if r.writes[v] == 0 {
		r.written = append(r.written, v)
	}
	r.writes[v]++
	r.S[v] = val
	r.C.Inc(stats.CtrStateWrites)
}

// WriteDelta stores val into v's pending-delta slot.
func (r *Runtime) WriteDelta(v graph.VertexID, val float64, p sim.Port, stall bool) {
	r.Delta[v] = val
	if stall {
		p.Write(r.DeltaAddr(v), DeltaBytes)
	} else {
		p.PrefetchWrite(r.DeltaAddr(v), DeltaBytes)
	}
}

// WriteParent stores u as v's dependency parent.
func (r *Runtime) WriteParent(v graph.VertexID, parent int32, p sim.Port, stall bool) {
	r.Parent[v] = parent
	if stall {
		p.Write(r.L.ParentAddr(v), ParentBytes)
	} else {
		p.PrefetchWrite(r.L.ParentAddr(v), ParentBytes)
	}
}

// ReadEdge models fetching edge slot i (neighbour ID + weight) by port p.
func (r *Runtime) ReadEdge(i uint64, p sim.Port, stall bool) {
	if stall {
		p.Read(r.L.NeighborAddr(i), VertexIDBytes)
		p.Read(r.L.WeightAddr(i), WeightBytes)
	} else {
		p.Prefetch(r.L.NeighborAddr(i), VertexIDBytes)
		p.Prefetch(r.L.WeightAddr(i), WeightBytes)
	}
}

// ReadOffsets models fetching v's CSR offset pair by port p.
func (r *Runtime) ReadOffsets(v graph.VertexID, p sim.Port, stall bool) {
	if stall {
		p.Read(r.L.OffsetAddr(v), OffsetBytes*2)
	} else {
		p.Prefetch(r.L.OffsetAddr(v), OffsetBytes*2)
	}
}

// FinishMetrics folds the per-vertex write counts into the useless-update
// metric: a vertex's writes beyond the first are redundant, and even the
// single write is useless when the final state equals the pre-batch state
// (e.g. a reset that re-derived the same value). Call once per batch.
func (r *Runtime) FinishMetrics() {
	var useful uint64
	for _, v := range r.written {
		final := r.S[v]
		pre := r.preBatch[v]
		same := final == pre || (math.IsInf(final, 1) && math.IsInf(pre, 1)) ||
			math.Abs(final-pre) <= r.Algo.Epsilon()
		if !same {
			useful++
		}
	}
	r.C.Add(stats.CtrUsefulUpdates, useful)
}

// TotalOutWeightOf returns v's cached total out-weight in G (computed on
// demand when the runtime was built without the accumulative cache).
func (r *Runtime) TotalOutWeightOf(v graph.VertexID) float64 {
	if r.totalOutW != nil {
		return r.totalOutW[v]
	}
	return algo.TotalOutWeight(r.G, v)
}
