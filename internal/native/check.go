package native

import (
	"math"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// Check verifies the session's state invariant on the live store and
// returns the first vertex in ID order that breaks it, or (0, true) when
// none does. The session must be quiescent (no batch in flight).
//
// No vertex is left queued or locked. Monotonic, the dependency forest
// and the fixpoint it justifies:
//   - a self-supported vertex holds its initial value;
//   - any other vertex's parent edge is in the graph, and the parent's
//     state propagated along it is the vertex's state, bit for bit;
//   - no parent chain cycles;
//   - no out-edge improves its target.
//
// Accumulative: every state is within 1e-3 of Base(v) + Damping · Σ
// Share · s[u] over its in-edges. The engine leaves deltas below Epsilon
// pending and their residuals compound over a long stream, so the gate
// catches gross divergence, not convergence noise.
//
// One O(V+E) pass over the out-rows, sealing nothing; it allocates only
// its per-vertex scratch, on its first call after the session grew.
func (s *Session) Check() (graph.VertexID, bool) {
	var bad int // the first failing vertex; none while len(s.states)
	if s.acc != nil {
		bad = s.checkAcc()
	} else {
		bad = s.checkMono()
	}
	if bad < len(s.states) {
		return graph.VertexID(bad), false
	}
	return 0, true
}

// checkMono returns the first vertex breaking a monotonic clause, or
// the vertex count when none does.
func (s *Session) checkMono() int {
	n := len(s.states)
	bad := n
	for u := range graph.VertexID(n) {
		got := s.states[u]
		if s.meta[u]&^metaParent != 0 || !s.supported(u, got) {
			bad = min(bad, int(u))
		}
		su := math.Float64frombits(got)
		for r, left := 0, s.store.OutDegree(u); left > 0; r++ {
			ns, ws := s.store.OutEdges(u, r)
			left -= len(ns)
			for i, x := range ns {
				if int(x) < bad && s.mono.Better(s.mono.Propagate(su, ws[i]), math.Float64frombits(s.states[x])) {
					bad = int(x)
				}
			}
		}
	}
	// Walk the parent chains in ID order, each vertex once: the first
	// chain that comes back to a vertex marked on it starts at the least
	// vertex whose chain cycles.
	const onChain, done = 1, 2
	if cap(s.chkMark) < n {
		s.chkMark = make([]uint8, n)
	}
	mark := s.chkMark[:n]
	clear(mark)
	for v := range min(n, bad) {
		x := v
		for x >= 0 && mark[x] == 0 {
			mark[x], x = onChain, s.parent(x)
		}
		if x >= 0 && mark[x] == onChain {
			return v
		}
		for x = v; x >= 0 && mark[x] == onChain; x = s.parent(x) {
			mark[x] = done
		}
	}
	return bad
}

// parent returns v's forest parent, or -1 when v is self-supported.
func (s *Session) parent(v int) int { return int(s.meta[v]&metaParent) - 1 }

// supported reports whether got, v's state bits, is what v's forest link
// gives: its initial value when self-supported, else its parent's state
// propagated along a parent edge that is in the graph.
func (s *Session) supported(v graph.VertexID, got uint64) bool {
	p := s.parent(int(v))
	if p < 0 {
		return got == math.Float64bits(s.mono.InitialValue(v))
	}
	w, ok := s.store.EdgeWeight(graph.VertexID(p), v)
	return ok && got == math.Float64bits(s.mono.Propagate(math.Float64frombits(s.states[p]), w))
}

// checkAcc returns the first vertex left queued or whose residual passes
// 1e-3, or the vertex count when none does.
func (s *Session) checkAcc() int {
	n := len(s.states)
	if cap(s.chkWant) < n {
		s.chkWant = make([]float64, n)
	}
	want := s.chkWant[:n]
	for v := range want {
		want[v] = s.acc.Base(graph.VertexID(v))
	}
	d := s.acc.Damping()
	for u := range graph.VertexID(n) {
		deg := s.store.OutDegree(u)
		sent := d * math.Float64frombits(s.states[u])
		for r, left := 0, deg; left > 0; r++ {
			ns, ws := s.store.OutEdges(u, r)
			left -= len(ns)
			for i, x := range ns {
				want[x] += sent * s.acc.Share(ws[i], deg, s.outW[u])
			}
		}
	}
	for v, w := range want {
		if s.meta[v] != 0 || !(math.Abs(math.Float64frombits(s.states[v])-w) <= 1e-3) {
			return v
		}
	}
	return n
}
