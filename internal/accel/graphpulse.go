package accel

import (
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// GraphPulse models the event-driven asynchronous accelerator [43] at the
// granularity Fig 16 compares: unlike JetStream it is not
// incremental-computation aware, so processing an event re-gathers the
// vertex's full in-neighbourhood before scattering — most of what it
// fetches is used (its events are precise), but it needs substantially
// more memory accesses than an incremental engine. Only the monotonic
// path differs materially; the accumulative path matches JetStream's with
// the extra gather traffic.
type GraphPulse struct {
	*JetStream
}

// NewGraphPulse builds the model over a prepared runtime: JetStream's
// event flow plus a full in-edge gather per processed event.
func NewGraphPulse(r *engine.Runtime) *GraphPulse {
	g := &GraphPulse{NewJetStream(r, false)}
	g.gather = g.regather
	return g
}

// Name implements engine.System.
func (g *GraphPulse) Name() string { return "GraphPulse" }

// regather models the non-incremental re-aggregation over v's in-edges.
func (g *GraphPulse) regather(v graph.VertexID, p sim.Port) {
	r := g.r
	if r.G.InOffsets == nil {
		return
	}
	p.Prefetch(r.L.InOffsetAddr(v), engine.OffsetBytes*2)
	ibase := r.G.InOffsets[v]
	ins := r.G.InNeighborsOf(v)
	for i, u := range ins {
		p.Prefetch(r.L.InNeighborAddr(ibase+uint64(i)), engine.VertexIDBytes)
		p.Prefetch(r.StateAddr(u), engine.StateBytes)
		p.Compute(1)
		r.C.Inc(stats.CtrPropagationVisits)
		// The re-aggregation applies the update function per in-edge.
		r.CountUpdateOp()
	}
}
