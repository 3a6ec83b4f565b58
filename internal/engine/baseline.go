package engine

import (
	"math"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// System is the interface every scheme in this repository implements:
// the four software baselines here, the TDGraph variants in
// internal/core, and the accelerator models in internal/accel.
type System interface {
	// Name identifies the scheme in benchmark output.
	Name() string
	// Process runs incremental repair and propagation for one applied
	// batch, leaving Runtime().S at the new fixpoint.
	Process(res graph.ApplyResult)
	// Runtime exposes the underlying runtime for metric collection and
	// correctness checks.
	Runtime() *Runtime
}

// Params distinguishes the software baselines. The numbers are relative
// behavioural signatures, not measured instruction counts: they encode
// which system carries how much extra per-edge work and metadata traffic,
// calibrated so the relative ordering of Fig 3(a) (Ligra-o fastest, then
// DZiG/KickStarter, GraphBolt slowest) emerges from the model.
type Params struct {
	Name string
	// OpsPerEdge is the compute charged per processed edge.
	OpsPerEdge int
	// OpsPerVertex is the compute charged per processed active vertex.
	OpsPerVertex int
	// MetaBytesPerEdge models per-edge dependency metadata traffic
	// (GraphBolt's per-iteration aggregate history, DZiG's sparsity
	// tracking): read+write of this many bytes at the destination's
	// metadata record.
	MetaBytesPerEdge int
	// DirectionOptimizing enables Ligra's push/pull switch for
	// monotonic algorithms: rounds whose frontier covers more than
	// 1/DenseDivisor of the edges run in the dense (pull) direction,
	// gathering from in-edges instead of scattering over out-edges.
	DirectionOptimizing bool
	// DenseDivisor sets the dense threshold (Ligra uses |E|/20).
	DenseDivisor int
	// DeltaFilter enables DZiG-style suppression of negligible deltas.
	DeltaFilter bool
	// DeltaFilterScale multiplies epsilon to form the suppression
	// threshold.
	DeltaFilterScale float64
}

// LigraO is the paper's optimised Ligra baseline: the state-of-the-art
// incremental technique of JetStream [44] plus software prefetching,
// loop unrolling, and SIMD — modelled as the lowest per-edge op count.
func LigraO() Params {
	return Params{Name: "Ligra-o", OpsPerEdge: 4, OpsPerVertex: 4, DirectionOptimizing: true, DenseDivisor: 20}
}

// GraphBolt models dependency-driven synchronous refinement [33]: extra
// per-edge aggregate-history traffic and bookkeeping.
func GraphBolt() Params {
	return Params{Name: "GraphBolt", OpsPerEdge: 9, OpsPerVertex: 10, MetaBytesPerEdge: 8}
}

// KickStarter models trimmed-approximation processing [61]: no SIMD
// optimisation, moderate bookkeeping on top of the shared parent-tree
// repair (which the runtime performs for every monotonic system).
func KickStarter() Params {
	return Params{Name: "KickStarter", OpsPerEdge: 7, OpsPerVertex: 7}
}

// DZiG models sparsity-aware refinement [32]: GraphBolt-style metadata
// with delta suppression that skips near-zero work.
func DZiG() Params {
	return Params{Name: "DZiG", OpsPerEdge: 8, OpsPerVertex: 8, MetaBytesPerEdge: 8, DeltaFilter: true, DeltaFilterScale: 4}
}

// Baseline is the synchronous push-based incremental engine shared by the
// four software systems: per iteration, every core processes the active
// vertices of its chunk, pushing new states (or deltas) to out-neighbours
// and building the next frontier. Propagations from different affected
// vertices proceed independently — the redundant-computation behaviour
// the paper analyses in §2.2 arises naturally.
type Baseline struct {
	r    *Runtime
	p    Params
	cost EdgeCost
}

// NewBaseline builds the engine over a prepared runtime.
func NewBaseline(p Params, r *Runtime) *Baseline {
	b := &Baseline{r: r, p: p, cost: EdgeCost{Ops: p.OpsPerEdge}}
	if p.MetaBytesPerEdge > 0 {
		b.cost.Touch = b.touchMeta
	}
	return b
}

// Name implements System.
func (b *Baseline) Name() string { return b.p.Name }

// Runtime implements System.
func (b *Baseline) Runtime() *Runtime { return b.r }

// Process implements System.
func (b *Baseline) Process(res graph.ApplyResult) {
	b.r.Run(res, func() {
		if b.r.Mono != nil {
			b.r.Rounds(b.roundMono)
		} else {
			b.r.Rounds(b.roundAcc)
		}
	})
}

// roundMono runs one monotonic round: pull when Ligra's switch says the
// frontier is dense and the graph has its CSC mirror, else push after
// rebalancing the frontier with work stealing (a dense round without
// the mirror pushes unbalanced).
func (b *Baseline) roundMono(frontiers [][]graph.VertexID) {
	r := b.r
	if b.p.DirectionOptimizing && b.frontierEdges(frontiers) > r.G.NumEdges()/max(1, b.p.DenseDivisor) {
		r.C.Inc(stats.CtrDenseIterations)
		if r.G.InOffsets != nil {
			b.denseIterationMono(frontiers)
			return
		}
	} else {
		frontiers = r.StealBalance(frontiers)
	}
	b.visitAll(frontiers, b.visitMono)
}

// visitAll visits every frontier vertex on its core's port.
func (b *Baseline) visitAll(frontiers [][]graph.VertexID, visit func(v graph.VertexID, p sim.Port)) {
	for ci, frontier := range frontiers {
		p := b.r.Ports[ci]
		p.SetPhase(sim.PhasePropagate)
		for _, v := range frontier {
			visit(v, p)
		}
	}
}

// frontierEdges sums the out-degrees of the round's frontier — Ligra's
// switch statistic.
func (b *Baseline) frontierEdges(frontiers [][]graph.VertexID) int {
	n := 0
	for _, f := range frontiers {
		for _, v := range f {
			n += b.r.G.OutDegree(v)
		}
	}
	return n
}

// denseIterationMono runs one pull-direction round: every core scans its
// own chunk's vertices, gathering candidates from in-edges whose source
// is in the frontier. Writes stay chunk-local (no cross-core
// invalidations — the pull direction's whole point), at the cost of
// touching every vertex's in-offsets.
func (b *Baseline) denseIterationMono(frontiers [][]graph.VertexID) {
	r := b.r
	inFrontier := make([]bool, r.G.NumVertices)
	for _, f := range frontiers {
		for _, v := range f {
			inFrontier[v] = true
		}
	}
	for ci, chunk := range r.Chunks {
		p := r.Ports[ci]
		p.SetPhase(sim.PhasePropagate)
		for w := chunk.Start; w < chunk.End; w++ {
			ibase := r.G.InOffsets[w]
			ins := r.G.InNeighborsOf(w)
			if len(ins) == 0 {
				continue
			}
			r.ReadOffsets(w, p, true)
			sw := r.ReadState(w, p, true)
			changedFrom := int32(-1)
			best := sw
			for i, u := range ins {
				p.Read(r.L.InNeighborAddr(ibase+uint64(i)), VertexIDBytes)
				p.Read(r.L.ActiveAddr(u), 1)
				if !inFrontier[u] {
					continue
				}
				r.C.Inc(stats.CtrEdgesProcessed)
				r.CountUpdateOp()
				p.Read(r.L.InWeightAddr(ibase+uint64(i)), WeightBytes)
				p.Compute(b.p.OpsPerEdge)
				su := r.ReadState(u, p, true)
				cand := r.Mono.Propagate(su, r.G.InWeightsOf(w)[i])
				r.C.Inc(stats.CtrPropagationVisits)
				if r.Mono.Better(cand, best) {
					best = cand
					changedFrom = int32(u)
				}
			}
			if changedFrom >= 0 {
				r.WriteState(w, best, p, true)
				r.WriteParent(w, changedFrom, p, true)
				r.Activate(w, p)
			}
		}
	}
}

// visitMono pushes v's state over its out-edges.
func (b *Baseline) visitMono(v graph.VertexID, p sim.Port) {
	r := b.r
	r.C.Inc(stats.CtrVerticesProcessed)
	p.Compute(b.p.OpsPerVertex)
	p.Read(r.L.ActiveAddr(v), 1)
	r.ReadOffsets(v, p, true)
	r.RelaxOut(v, r.ReadState(v, p, true), p, b.cost, nil)
}

// roundAcc runs one accumulative round over the work-stolen frontier.
func (b *Baseline) roundAcc(frontiers [][]graph.VertexID) {
	b.visitAll(b.r.StealBalance(frontiers), b.visitAcc)
}

// visitAcc applies v's pending delta and scatters it, unless the delta
// is within the suppression threshold (epsilon, scaled by DZiG's filter).
func (b *Baseline) visitAcc(v graph.VertexID, p sim.Port) {
	r := b.r
	thresh := r.Acc.Epsilon()
	if b.p.DeltaFilter {
		thresh *= b.p.DeltaFilterScale
	}
	r.C.Inc(stats.CtrVerticesProcessed)
	p.Compute(b.p.OpsPerVertex)
	p.Read(r.L.ActiveAddr(v), 1)
	p.Read(r.DeltaAddr(v), DeltaBytes)
	dv := r.Delta[v]
	r.WriteDelta(v, 0, p, true)
	if math.Abs(dv) <= thresh {
		if math.Abs(dv) > 0 {
			r.C.Inc(stats.CtrDeltaFiltered)
		}
		return
	}
	sv := r.ReadState(v, p, true)
	r.WriteState(v, sv+dv, p, true)
	if r.G.OutDegree(v) == 0 {
		return
	}
	r.ReadOffsets(v, p, true)
	r.ScatterOut(v, dv, p, b.cost, nil)
}

func (b *Baseline) touchMeta(w graph.VertexID, p sim.Port) {
	if b.r.L.Meta.Size == 0 {
		return
	}
	addr := b.r.L.MetaAddr(w, b.p.MetaBytesPerEdge)
	p.Read(addr, b.p.MetaBytesPerEdge)
	p.Write(addr, b.p.MetaBytesPerEdge)
}
