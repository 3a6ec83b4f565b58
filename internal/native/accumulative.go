package native

import (
	"math"
	"slices"
	"sync/atomic"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
)

// The accumulative family (PageRank, Adsorption) on the Session: the
// fixpoint s[v] = Base(v) + Damping · Σ_{u→v} Share(u→v) · s[u] is kept
// by pushing signed deltas. A batch cancels each touched source's old
// contributions and adds its new ones (the serial repair); propagation
// then forwards every pending delta above Epsilon on the pool.

// bootstrapAcc installs keep, or the from-scratch fixpoint over rows,
// with no delta pending, and each vertex's total out-weight.
func (s *Session) bootstrapAcc(rows *graph.Rows, keep []float64) {
	n := rows.NumVertices()
	s.growTo(n)
	if keep == nil {
		keep = algo.Reference(s.acc, &graph.Snapshot{NumVertices: n, Offsets: rows.Offsets, Neighbors: rows.Neighbors, Weights: rows.Weights})
	}
	for v := range graph.VertexID(n) {
		_, ws := rows.Row(v)
		s.states[v], s.delta[v], s.outW[v] = math.Float64bits(keep[v]), 0, sumWeights(ws)
	}
}

func sumWeights(ws []float32) (t float64) {
	for _, w := range ws {
		t += float64(w)
	}
	return t
}

// appendRow appends u's out-row in the store to ns and ws.
func (s *Session) appendRow(ns []graph.VertexID, ws []float32, u graph.VertexID) ([]graph.VertexID, []float32) {
	for r, left := 0, s.store.OutDegree(u); left > 0; r++ {
		rn, rw := s.store.OutEdges(u, r)
		left -= len(rn)
		ns, ws = append(ns, rn...), append(ws, rw...)
	}
	return ns, ws
}

// capturePreRows records, before the store applies batch, each distinct
// source's out-row: the edges its current contributions went along.
// ApplyResult cannot stand in for it: its DeletedEdges may list an edge
// a later add of the same batch restored. The cost is the touched
// sources' degree, not the graph's size.
func (s *Session) capturePreRows(batch []graph.Update) {
	s.srcs = s.srcs[:0]
	for _, u := range batch {
		s.srcs = append(s.srcs, u.Edge.Src)
	}
	slices.Sort(s.srcs)
	s.srcs = slices.Compact(s.srcs)
	s.preEnd, s.preNbr, s.preW = s.preEnd[:0], s.preNbr[:0], s.preW[:0]
	for _, u := range s.srcs {
		if int(u) < len(s.states) {
			s.preNbr, s.preW = s.appendRow(s.preNbr, s.preW, u)
		}
		s.preEnd = append(s.preEnd, len(s.preNbr))
	}
}

// repairAcc moves each touched source's sent mass from its pre-batch row
// to its current one, appended after the captured rows while it is read:
// minus its share along every old edge, plus its share along every new
// one.
func (s *Session) repairAcc() {
	lo := 0
	for i, u := range s.srcs {
		hi, end := s.preEnd[i], len(s.preNbr)
		if int(u) < len(s.states) { // else a delete from a vertex the store never had
			sent := s.acc.Damping() * math.Float64frombits(s.states[u])
			s.sendAlong(s.preNbr[lo:hi], s.preW[lo:hi], s.outW[u], -sent)
			s.preNbr, s.preW = s.appendRow(s.preNbr, s.preW, u)
			s.outW[u] = sumWeights(s.preW[end:])
			s.sendAlong(s.preNbr[end:], s.preW[end:], s.outW[u], sent)
		}
		s.preNbr, s.preW, lo = s.preNbr[:end], s.preW[:end], hi
	}
}

// sendAlong adds x's share along each edge of a row of the given total
// weight to the destinations' pending deltas, seeding each that leaves
// the Epsilon band.
func (s *Session) sendAlong(ns []graph.VertexID, ws []float32, total, x float64) {
	eps := s.acc.Epsilon()
	for j, w := range ns {
		if math.Abs(addFloat(&s.delta[w], x*s.acc.Share(ws[j], len(ns), total))) > eps {
			s.activate(w)
		}
	}
}

// addFloat atomically adds x to the float64 stored at *p and returns
// the sum.
func addFloat(p *uint64, x float64) float64 {
	for {
		old := atomic.LoadUint64(p)
		sum := math.Float64frombits(old) + x
		if atomic.CompareAndSwapUint64(p, old, math.Float64bits(sum)) {
			return sum
		}
	}
}

// visitAcc claims v's pending delta, applies it and pushes its damped
// shares to the out-neighbours, returning v's out-degree. A delta inside
// the Epsilon band stays pending (false) for later ones to carry out:
// dropped, it drifts past 1e-4 (TestAccumulativeDefaultEpsilon).
func (s *Session) visitAcc(v graph.VertexID) (int, bool) {
	eps := s.acc.Epsilon()
	if math.Abs(math.Float64frombits(atomic.LoadUint64(&s.delta[v]))) <= eps {
		return 0, false
	}
	dv := math.Float64frombits(atomic.SwapUint64(&s.delta[v], 0))
	addFloat(&s.states[v], dv)
	deg := s.store.OutDegree(v)
	sent, total := s.acc.Damping()*dv, s.outW[v]
	for r, left := 0, deg; left > 0; r++ {
		ns, ws := s.store.OutEdges(v, r)
		left -= len(ns)
		for i, u := range ns {
			if c := sent * s.acc.Share(ws[i], deg, total); c != 0 && math.Abs(addFloat(&s.delta[u], c)) > eps && atomic.CompareAndSwapUint32(&s.meta[u], 0, metaQueued) {
				s.next[atomic.AddInt64(&s.nextLen, 1)-1] = u
			}
		}
	}
	return deg, true
}
