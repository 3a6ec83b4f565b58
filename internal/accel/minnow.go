package accel

import (
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// Minnow models lightweight worklist offload engines [67]: each core's
// worklist is managed in hardware and the engine prefetches the state and
// adjacency data of the next few worklist entries ahead of the core, so
// worklist pops are cheap and most data is warm when consumed. Processing
// is asynchronous (no iteration barrier) but propagations from different
// affected vertices are never merged.
type Minnow struct {
	r *engine.Runtime
	// PrefetchAhead is the worklist-directed prefetch depth.
	PrefetchAhead int
}

// NewMinnow builds the model over a prepared runtime.
func NewMinnow(r *engine.Runtime) *Minnow { return &Minnow{r: r, PrefetchAhead: 8} }

// Name implements engine.System.
func (mw *Minnow) Name() string { return "Minnow" }

// Runtime implements engine.System.
func (mw *Minnow) Runtime() *engine.Runtime { return mw.r }

// minnowEdge: the worklist engine prefetches vertex data, not edges.
var minnowEdge = engine.EdgeCost{Ops: 3}

// Process implements engine.System.
func (mw *Minnow) Process(res graph.ApplyResult) {
	r := mw.r
	// Asynchronous drain: every core works its FIFO to exhaustion;
	// cross-core activations land on the owner's list and are drained
	// in the next sweep. Sweeps repeat until the system quiesces.
	r.Run(res, func() {
		for r.HasActive() {
			r.C.Inc(stats.CtrIterations)
			for ci := range r.Chunks {
				p := r.Ports[ci]
				p.SetPhase(sim.PhasePropagate)
				// Drain the local FIFO including entries appended
				// during this drain (asynchronous, no barrier).
				for work := r.TakeActive(ci); len(work) > 0; work = r.TakeActive(ci) {
					for wi, v := range work {
						// Worklist-directed prefetch: warm the data
						// of the entry PrefetchAhead slots ahead.
						if wi+mw.PrefetchAhead < len(work) {
							ahead := work[wi+mw.PrefetchAhead]
							r.ReadOffsets(ahead, p, false)
							p.Prefetch(r.StateAddr(ahead), engine.StateBytes)
						}
						mw.processVertex(v, p)
					}
				}
			}
			r.Barrier()
		}
	})
}

func (mw *Minnow) processVertex(v graph.VertexID, p sim.Port) {
	r := mw.r
	r.C.Inc(stats.CtrVerticesProcessed)
	// Hardware pop: one instruction.
	p.Compute(1)
	r.ReadOffsets(v, p, true)
	if r.Mono != nil {
		r.RelaxOut(v, r.ReadState(v, p, true), p, minnowEdge, nil)
		return
	}
	p.Read(r.DeltaAddr(v), engine.DeltaBytes)
	dv := r.Delta[v]
	r.WriteDelta(v, 0, p, true)
	eps := r.Acc.Epsilon()
	if dv < eps && dv > -eps {
		return
	}
	sv := r.ReadState(v, p, true)
	r.WriteState(v, sv+dv, p, true)
	r.ScatterOut(v, dv, p, minnowEdge, nil)
}
