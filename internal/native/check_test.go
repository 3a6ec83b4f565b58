package native

import (
	"math"
	"testing"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
)

// TestSessionCheckClauses breaks one clause of Check's invariant per
// case on a converged session and expects Check to name the broken
// vertex. Each broken state satisfies every other clause, so a Check
// without the case's clause passes it and fails the case.
//
// The monotonic graph is SSSP from 0: 2 is reached through 1 at 2
// (0→2 weighs 5), 3 only through 0 at 4, 5 and 6 are an unreachable
// pair of opposite edges, 4 and 7 are isolated.
func TestSessionCheckClauses(t *testing.T) {
	mono := []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 0, Dst: 2, Weight: 5},
		{Src: 0, Dst: 3, Weight: 4}, {Src: 5, Dst: 6, Weight: 1}, {Src: 6, Dst: 5, Weight: 1},
	}
	acc := []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 2}, {Src: 2, Dst: 0, Weight: 1}, {Src: 0, Dst: 2, Weight: 3}}
	set := func(s *Session, v graph.VertexID, x float64) { s.states[v] = math.Float64bits(x) }
	for _, c := range []struct {
		name  string
		a     algo.Algorithm
		edges []graph.Edge
		brk   func(*Session)
		want  graph.VertexID
	}{
		{"left queued", algo.NewSSSP(0), mono, func(s *Session) { s.meta[3] |= metaQueued }, 3},
		{"left locked", algo.NewSSSP(0), mono, func(s *Session) { s.meta[6] |= metaLock }, 6},
		{"self-supported off its initial value", algo.NewSSSP(0), mono, func(s *Session) { set(s, 4, 7) }, 4},
		{"parent edge missing", algo.NewSSSP(0), mono, func(s *Session) { s.setParent(7, 4+1) }, 7},
		{"parent value mismatch", algo.NewSSSP(0), mono, func(s *Session) { set(s, 3, 3) }, 3},
		{"two-vertex cycle", algo.NewSSSP(0), mono, func(s *Session) { s.setParent(5, 6+1); s.setParent(6, 5+1) }, 5},
		{"improvable out-edge, consistent parent", algo.NewSSSP(0), mono, func(s *Session) { s.setParent(2, 0+1); set(s, 2, 5) }, 2},
		{"accumulative left queued", algo.NewPageRank(), acc, func(s *Session) { s.meta[2] |= metaQueued }, 2},
		{"accumulative residual", algo.NewPageRank(), acc, func(s *Session) { set(s, 1, s.State(1)+0.01) }, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewSession(c.a, graph.NewStoreFromEdges(8, c.edges), Config{Workers: 1})
			defer s.Close()
			if v, ok := s.Check(); !ok {
				t.Fatalf("the converged session fails at vertex %d", v)
			}
			c.brk(s)
			if v, ok := s.Check(); ok || v != c.want {
				t.Fatalf("Check() = %d, %v; want %d, false", v, ok, c.want)
			}
		})
	}
}
