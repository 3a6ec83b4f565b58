package algo

import (
	"math"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// AuditStates checks the local-fixpoint invariant of a converged state
// vector — the divergence detector behind graceful degradation. For a
// monotonic algorithm every state must equal the best contribution
// reachable over its in-edges (or its initial value); for an accumulative
// algorithm every state must satisfy s[v] ≈ Base(v) + Damping·Σ Share·s[u].
// A state vector an engine left converged passes; one corrupted after a
// fault fails at the corrupted vertex or one of its dependents. The check
// is one O(V+E) pass over the out-CSR, so it needs no in-index.
//
// Tolerances: monotonic states converge exactly, so the tolerance is
// essentially the algorithm's epsilon; accumulative engines legitimately
// stop propagating sub-epsilon deltas and those residuals compound across
// a long stream, so the audit uses a loose 1e-3 gate — it exists to catch
// gross fault-induced divergence, not to re-litigate convergence.
//
// It returns the first divergent vertex in ID order, or (0, true) when
// the invariant holds everywhere.
func AuditStates(a Algorithm, g *graph.Snapshot, states []float64) (graph.VertexID, bool) {
	if len(states) != g.NumVertices {
		return 0, false
	}
	want := make([]float64, g.NumVertices)
	switch alg := a.(type) {
	case MonotonicAlgo:
		for v := range want {
			want[v] = alg.InitialValue(graph.VertexID(v))
		}
		for u := 0; u < g.NumVertices; u++ {
			su := states[u]
			ws := g.OutWeights(graph.VertexID(u))
			for i, v := range g.OutNeighbors(graph.VertexID(u)) {
				cand := alg.Propagate(su, ws[i])
				if alg.Better(cand, want[v]) {
					want[v] = cand
				}
			}
		}
		tol := alg.Epsilon()
		if tol < 1e-9 {
			tol = 1e-9
		}
		return firstDivergent(states, want, tol)
	case AccumulativeAlgo:
		for v := range want {
			want[v] = alg.Base(graph.VertexID(v))
		}
		d := alg.Damping()
		for u := 0; u < g.NumVertices; u++ {
			deg := g.OutDegree(graph.VertexID(u))
			if deg == 0 {
				continue
			}
			su := states[u]
			totW := TotalOutWeight(g, graph.VertexID(u))
			ws := g.OutWeights(graph.VertexID(u))
			for i, v := range g.OutNeighbors(graph.VertexID(u)) {
				want[v] += d * su * alg.Share(ws[i], deg, totW)
			}
		}
		return firstDivergent(states, want, 1e-3)
	}
	return 0, true
}

func firstDivergent(got, want []float64, tol float64) (graph.VertexID, bool) {
	for v := range got {
		gv, wv := got[v], want[v]
		if math.IsInf(gv, 1) && math.IsInf(wv, 1) {
			continue
		}
		if math.IsNaN(gv) || math.Abs(gv-wv) > tol {
			return graph.VertexID(v), false
		}
	}
	return 0, true
}
