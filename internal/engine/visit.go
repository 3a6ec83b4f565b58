package engine

import (
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// The vertex-centric visit every simulated system shares. The systems
// differ in their scheduling (Rounds, or their own drain), in their
// vertex preamble and in what they charge per edge (EdgeCost and the
// write/add hooks); the edge walk underneath is written once, here.
//
// Two walks stay with their systems on purpose: JetStream's event walk
// (prefetched state reads, no parent, an enqueue instead of an
// activation) and TDGraph's TDTU processEdge (a counted update only on a
// change, VSCU-aware state access).

// Run processes one batch: repair, propagate, then the update metrics
// and the machine's final drain.
func (r *Runtime) Run(res graph.ApplyResult, propagate func()) {
	r.Repair(res)
	propagate()
	r.FinishMetrics()
	if r.M != nil {
		r.M.Finish()
	}
}

// Barrier synchronises every core of the machine, if there is one.
func (r *Runtime) Barrier() {
	if r.M != nil {
		r.M.Barrier()
	}
}

// Rounds runs synchronous rounds until nothing is active: each takes
// every core's active list, hands them to round, then barriers.
func (r *Runtime) Rounds(round func(frontiers [][]graph.VertexID)) {
	for r.HasActive() {
		r.C.Inc(stats.CtrIterations)
		frontiers := make([][]graph.VertexID, len(r.Chunks))
		for ci := range r.Chunks {
			frontiers[ci] = r.TakeActive(ci)
		}
		round(frontiers)
		r.Barrier()
	}
}

// EdgeCost is what one system charges per out-edge it walks.
type EdgeCost struct {
	// Prefetched edges are fetched by an engine ahead of the core:
	// their reads do not stall and count as CtrPrefetchedEdges.
	Prefetched bool
	// Ops is the compute charged per edge.
	Ops int
	// Touch, when set, charges per-edge metadata traffic at the
	// destination w.
	Touch func(w graph.VertexID, p sim.Port)
}

// edge charges the walk of edge slot i towards w.
func (r *Runtime) edge(i uint64, w graph.VertexID, p sim.Port, c EdgeCost) {
	r.C.Inc(stats.CtrEdgesProcessed)
	r.CountUpdateOp()
	if c.Prefetched {
		r.C.Inc(stats.CtrPrefetchedEdges)
	}
	r.ReadEdge(i, p, !c.Prefetched)
	p.Compute(c.Ops)
	if c.Touch != nil {
		c.Touch(w, p)
	}
}

// RelaxOut is the monotonic edge walk from v, whose state is sv: every
// out-neighbour w whose state the candidate improves takes it, with v
// as its parent, and is activated. A nil write stores the state with a
// stalling write; a system with its own write path passes it.
func (r *Runtime) RelaxOut(v graph.VertexID, sv float64, p sim.Port, c EdgeCost, write func(w graph.VertexID, val float64, p sim.Port)) {
	base := r.G.Offsets[v]
	ws := r.G.OutWeights(v)
	for i, w := range r.G.OutNeighbors(v) {
		r.edge(base+uint64(i), w, p, c)
		cand := r.Mono.Propagate(sv, ws[i])
		sw := r.ReadState(w, p, true)
		r.C.Inc(stats.CtrPropagationVisits)
		if r.Mono.Better(cand, sw) {
			if write != nil {
				write(w, cand, p)
			} else {
				r.WriteState(w, cand, p, true)
			}
			r.WriteParent(w, int32(v), p, true)
			r.Activate(w, p)
		}
	}
}

// ScatterOut is the accumulative edge walk from v, which has just
// applied delta dv: every out-neighbour receives its damped share as a
// pending delta and is activated. A nil add reads and writes the
// destination's delta with stalling accesses; a system with its own
// delta path passes it.
func (r *Runtime) ScatterOut(v graph.VertexID, dv float64, p sim.Port, c EdgeCost, add func(w graph.VertexID, contrib float64, p sim.Port)) {
	deg := r.G.OutDegree(v)
	d := r.Acc.Damping()
	tw := r.TotalOutWeightOf(v)
	base := r.G.Offsets[v]
	ws := r.G.OutWeights(v)
	for i, w := range r.G.OutNeighbors(v) {
		r.edge(base+uint64(i), w, p, c)
		contrib := d * dv * r.Acc.Share(ws[i], deg, tw)
		if contrib == 0 {
			continue
		}
		r.C.Inc(stats.CtrPropagationVisits)
		if add != nil {
			add(w, contrib, p)
		} else {
			p.Read(r.DeltaAddr(w), DeltaBytes)
			r.WriteDelta(w, r.Delta[w]+contrib, p, true)
		}
		r.Activate(w, p)
	}
}
