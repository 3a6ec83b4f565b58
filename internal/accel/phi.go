package accel

import (
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// PHI models architectural support for commutative scatter updates [37]:
// updates to vertex states are buffered in a per-core combining structure
// in the private cache; updates to the same vertex merge (min for
// monotonic selection, sum for accumulative deltas) and only the merged
// result is written out when an entry is displaced, reducing on-chip
// traffic and coherence invalidations. Scheduling is otherwise the
// synchronous Ligra-style loop, so redundant computation persists.
type PHI struct {
	r *engine.Runtime
	// BufferEntries is the per-core combining-buffer capacity.
	BufferEntries int
	bufs          []*combineBuffer
}

type combineEntry struct {
	v     graph.VertexID
	delta bool
}

type combineBuffer struct {
	pending map[combineEntry]struct{}
	order   []combineEntry
}

// NewPHI builds the model over a prepared runtime.
func NewPHI(r *engine.Runtime) *PHI {
	p := &PHI{r: r, BufferEntries: 64}
	p.bufs = make([]*combineBuffer, len(r.Chunks))
	for i := range p.bufs {
		p.bufs[i] = &combineBuffer{pending: make(map[combineEntry]struct{})}
	}
	return p
}

// Name implements engine.System.
func (ph *PHI) Name() string { return "PHI" }

// Runtime implements engine.System.
func (ph *PHI) Runtime() *engine.Runtime { return ph.r }

// bufferUpdate records a state (or delta) update into core ci's combining
// buffer; a second update to a buffered entry coalesces (one memory write
// saved). A full buffer drains completely.
func (ph *PHI) bufferUpdate(ci int, v graph.VertexID, delta bool, p sim.Port) {
	b := ph.bufs[ci]
	e := combineEntry{v: v, delta: delta}
	if _, ok := b.pending[e]; ok {
		ph.r.C.Inc(stats.CtrEventsCoalesced)
		return
	}
	if len(b.order) >= ph.BufferEntries {
		ph.drain(ci, p)
	}
	b.pending[e] = struct{}{}
	b.order = append(b.order, e)
}

// drain writes every merged update out to memory.
func (ph *PHI) drain(ci int, p sim.Port) {
	b := ph.bufs[ci]
	for _, e := range b.order {
		if e.delta {
			p.Write(ph.r.DeltaAddr(e.v), engine.DeltaBytes)
		} else {
			p.Write(ph.r.StateAddr(e.v), engine.StateBytes)
		}
	}
	b.order = b.order[:0]
	b.pending = make(map[combineEntry]struct{})
}

// phiEdge: PHI leaves edge fetching to the core.
var phiEdge = engine.EdgeCost{Ops: 3}

// Process implements engine.System.
func (ph *PHI) Process(res graph.ApplyResult) {
	r := ph.r
	r.Run(res, func() {
		r.Rounds(func(frontiers [][]graph.VertexID) {
			for ci, frontier := range frontiers {
				p := r.Ports[ci]
				p.SetPhase(sim.PhasePropagate)
				for _, v := range frontier {
					ph.processVertex(ci, v, p)
				}
				ph.drain(ci, p)
			}
		})
	})
}

func (ph *PHI) processVertex(ci int, v graph.VertexID, p sim.Port) {
	r := ph.r
	r.C.Inc(stats.CtrVerticesProcessed)
	p.Compute(2)
	p.Read(r.L.ActiveAddr(v), 1)
	r.ReadOffsets(v, p, true)
	if r.Mono != nil {
		// The update enters the combining buffer; the merged result
		// reaches memory on drain.
		r.RelaxOut(v, r.ReadState(v, p, true), p, phiEdge, func(w graph.VertexID, val float64, p sim.Port) {
			r.WriteStateQuiet(w, val)
			ph.bufferUpdate(ci, w, false, p)
		})
		return
	}
	p.Read(r.DeltaAddr(v), engine.DeltaBytes)
	dv := r.Delta[v]
	r.Delta[v] = 0
	eps := r.Acc.Epsilon()
	if dv < eps && dv > -eps {
		return
	}
	sv := r.ReadState(v, p, true)
	r.WriteStateQuiet(v, sv+dv)
	ph.bufferUpdate(ci, v, false, p)
	// Delta scatters also combine in the buffer (commutative sum).
	r.ScatterOut(v, dv, p, phiEdge, func(w graph.VertexID, contrib float64, p sim.Port) {
		r.Delta[w] += contrib
		ph.bufferUpdate(ci, w, true, p)
	})
}
