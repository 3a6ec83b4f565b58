package engine

import (
	"math"
	"sort"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// Repair performs the per-family incremental repair of §2.1 for an
// applied batch, leaving the runtime with the correct set of active
// vertices for the engine's propagation loop. Costs are charged to the
// owning cores under PhaseOther (this is part of the "other time" in the
// paper's breakdowns). Batch application is a bulk, software-pipelined
// scan in every real system (the updates are known up front, so their
// accesses prefetch perfectly), so repair charges compute and traffic but
// not demand-miss stalls — identical for every scheme.
func (r *Runtime) Repair(res graph.ApplyResult) {
	for _, p := range r.Ports {
		p.SetPhase(sim.PhaseOther)
	}
	if r.Mono != nil {
		r.repairMonotonic(res)
	} else {
		r.repairAccumulative(res)
	}
}

// repairMonotonic implements Fig 2(b)/(c): edge additions relax the
// destination directly; edge deletions tag the dependent subtree through
// the parent forest, reset it, re-gather each reset vertex from its
// in-neighbours, and activate it.
func (r *Runtime) repairMonotonic(res graph.ApplyResult) {
	// Step 1: deletions — find unsafe destinations.
	var tagged []graph.VertexID
	isTagged := make(map[graph.VertexID]bool)
	tag := func(v graph.VertexID) {
		if !isTagged[v] {
			isTagged[v] = true
			tagged = append(tagged, v)
		}
	}
	for _, e := range res.DeletedEdges {
		p := r.PortOf(e.Dst)
		p.Compute(2)
		if r.M != nil {
			p.Prefetch(r.L.ParentAddr(e.Dst), ParentBytes)
		}
		if r.Parent[e.Dst] == int32(e.Src) {
			tag(e.Dst)
		}
	}
	// Tag propagation (§2.1 step 1 of deletion): walk the dependence
	// forest downstream over the new snapshot.
	r.C.Add(stats.CtrTagPropagations, uint64(len(tagged)))
	for i := 0; i < len(tagged); i++ {
		x := tagged[i]
		p := r.PortOf(x)
		r.ReadOffsets(x, p, false)
		base := r.G.Offsets[x]
		ns := r.G.OutNeighbors(x)
		for j, w := range ns {
			r.ReadEdge(base+uint64(j), p, false)
			p.Compute(2)
			if r.M != nil {
				p.Prefetch(r.L.ParentAddr(w), ParentBytes)
			}
			if r.Parent[w] == int32(x) && !isTagged[w] {
				tag(w)
				r.C.Inc(stats.CtrTagPropagations)
			}
		}
	}
	// Step 2: reset tagged vertices to their initial values.
	for _, v := range tagged {
		p := r.PortOf(v)
		r.WriteState(v, r.Mono.InitialValue(v), p, false)
		r.WriteParent(v, -1, p, false)
		r.C.Inc(stats.CtrResets)
	}
	// Step 3+4: re-gather every reset vertex from its in-neighbours and
	// activate it. The gathers run in parallel on the cores, so they
	// all observe the same post-reset snapshot: a reset vertex whose
	// best in-neighbour was also reset re-derives only a provisional
	// value, and the reset region reconverges during propagation — the
	// phase whose ordering discipline the schemes differ in.
	type gathered struct {
		v      graph.VertexID
		best   float64
		parent int32
	}
	results := make([]gathered, 0, len(tagged))
	for _, v := range tagged {
		p := r.PortOf(v)
		best := r.Mono.InitialValue(v)
		parent := int32(-1)
		if r.G.InOffsets != nil {
			ins := r.G.InNeighborsOf(v)
			ws := r.G.InWeightsOf(v)
			ibase := r.G.InOffsets[v]
			for i, u := range ins {
				if r.M != nil {
					p.Prefetch(r.L.InNeighborAddr(ibase+uint64(i)), VertexIDBytes)
					p.Prefetch(r.L.InWeightAddr(ibase+uint64(i)), WeightBytes)
				}
				su := r.ReadState(u, p, false)
				cand := r.Mono.Propagate(su, ws[i])
				p.Compute(2)
				if r.Mono.Better(cand, best) {
					best = cand
					parent = int32(u)
				}
			}
		}
		results = append(results, gathered{v: v, best: best, parent: parent})
	}
	for _, g := range results {
		p := r.PortOf(g.v)
		if g.best != r.S[g.v] {
			r.WriteState(g.v, g.best, p, false)
			r.WriteParent(g.v, g.parent, p, false)
		}
		r.Activate(g.v, p)
	}
	// Step 5: additions — relax the destination of each added edge
	// (Fig 2(b) steps 1-2).
	for _, e := range res.AddedEdges {
		p := r.PortOf(e.Dst)
		su := r.ReadState(e.Src, p, false)
		sv := r.ReadState(e.Dst, p, false)
		cand := r.Mono.Propagate(su, e.Weight)
		p.Compute(3)
		if r.Mono.Better(cand, sv) {
			r.WriteState(e.Dst, cand, p, false)
			r.WriteParent(e.Dst, int32(e.Src), p, false)
			r.Activate(e.Dst, p)
		}
	}
}

// repairAccumulative implements the contribution cancel/redo of §2.1 for
// accumulative algorithms: for every source vertex touched by the batch,
// the contributions its previously converged state made through its old
// out-edges are cancelled and its contributions through the new out-edges
// are applied; the per-destination differences become pending deltas.
func (r *Runtime) repairAccumulative(res graph.ApplyResult) {
	srcSet := make(map[graph.VertexID]bool)
	var srcs []graph.VertexID
	for _, e := range res.AddedEdges {
		if !srcSet[e.Src] {
			srcSet[e.Src] = true
			srcs = append(srcs, e.Src)
		}
	}
	for _, e := range res.DeletedEdges {
		if !srcSet[e.Src] {
			srcSet[e.Src] = true
			srcs = append(srcs, e.Src)
		}
	}
	d := r.Acc.Damping()
	for _, u := range srcs {
		p := r.PortOf(u)
		ru := r.ReadState(u, p, false)
		diff := make(map[graph.VertexID]float64)
		// Cancel old contributions (inverse-value propagation of §2.1).
		if int(u) < r.OldG.NumVertices {
			oldDeg := r.OldG.OutDegree(u)
			if oldDeg > 0 {
				oldW := algo.TotalOutWeight(r.OldG, u)
				ns := r.OldG.OutNeighbors(u)
				ws := r.OldG.OutWeights(u)
				base := r.OldG.Offsets[u]
				for i, w := range ns {
					_ = base
					r.ReadEdge(r.OldG.Offsets[u]+uint64(i), p, false)
					diff[w] -= d * ru * r.Acc.Share(ws[i], oldDeg, oldW)
					p.Compute(3)
				}
			}
		}
		// Apply new contributions.
		newDeg := r.G.OutDegree(u)
		if newDeg > 0 {
			newW := r.totalOutW[u]
			ns := r.G.OutNeighbors(u)
			ws := r.G.OutWeights(u)
			for i, w := range ns {
				r.ReadEdge(r.G.Offsets[u]+uint64(i), p, false)
				diff[w] += d * ru * r.Acc.Share(ws[i], newDeg, newW)
				p.Compute(3)
			}
		}
		// Deterministic destination order keeps the simulated access
		// stream reproducible run to run.
		dsts := make([]graph.VertexID, 0, len(diff))
		for w := range diff {
			dsts = append(dsts, w)
		}
		sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
		for _, w := range dsts {
			dv := diff[w]
			if math.Abs(dv) <= r.Acc.Epsilon() {
				continue
			}
			pw := r.PortOf(w)
			if r.M != nil {
				pw.Prefetch(r.L.DeltaAddr(w), DeltaBytes)
			}
			r.WriteDelta(w, r.Delta[w]+dv, pw, false)
			r.Activate(w, pw)
		}
	}
}
