package algo_test

import (
	"math"
	"testing"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
)

func TestBFSOnChain(t *testing.T) {
	g := chain(t) // weights 2, but BFS counts hops
	s := algo.Reference(algo.NewBFS(0), g)
	for v := 0; v < 5; v++ {
		if s[v] != float64(v) {
			t.Fatalf("hops[%d] = %v, want %d", v, s[v], v)
		}
	}
}

func TestSSWPBottleneck(t *testing.T) {
	// Two routes 0→3: via 1 (capacities 10, 2) and via 2 (capacities 5, 5).
	st := graph.NewStore(4)
	st.AddEdge(0, 1, 10)
	st.AddEdge(1, 3, 2)
	st.AddEdge(0, 2, 5)
	st.AddEdge(2, 3, 5)
	s := algo.Reference(algo.NewSSWP(0), st.Seal())
	if !math.IsInf(s[0], 1) {
		t.Fatalf("root capacity = %v, want +inf", s[0])
	}
	if s[1] != 10 || s[2] != 5 {
		t.Fatalf("mid capacities: %v %v", s[1], s[2])
	}
	if s[3] != 5 {
		t.Fatalf("bottleneck to 3 = %v, want 5 (via 2)", s[3])
	}
}

func TestSSWPUnreachable(t *testing.T) {
	st := graph.NewStore(3)
	st.AddEdge(0, 1, 4)
	s := algo.Reference(algo.NewSSWP(0), st.Seal())
	if s[2] != 0 {
		t.Fatalf("unreachable capacity = %v, want 0", s[2])
	}
}
