package algo_test

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
)

// chain builds 0→1→2→3→4 with weight 2 each.
func chain(t *testing.T) *graph.Snapshot {
	t.Helper()
	st := graph.NewStore(5)
	for v := 0; v < 4; v++ {
		st.AddEdge(graph.VertexID(v), graph.VertexID(v+1), 2)
	}
	return st.Seal()
}

func TestSSSPOnChain(t *testing.T) {
	g := chain(t)
	s := algo.Reference(algo.NewSSSP(0), g)
	for v := 0; v < 5; v++ {
		if want := float64(2 * v); s[v] != want {
			t.Fatalf("dist[%d] = %v, want %v", v, s[v], want)
		}
	}
}

func TestSSSPUnreachable(t *testing.T) {
	st := graph.NewStore(3)
	st.AddEdge(0, 1, 1)
	s := algo.Reference(algo.NewSSSP(0), st.Seal())
	if !math.IsInf(s[2], 1) {
		t.Fatalf("dist[2] = %v, want +inf", s[2])
	}
}

func TestCCOnComponents(t *testing.T) {
	// Two symmetric components {0,1,2} and {3,4}.
	st := graph.NewStore(5)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 0}, {1, 2}, {2, 1}, {3, 4}, {4, 3}} {
		st.AddEdge(e[0], e[1], 1)
	}
	s := algo.Reference(algo.NewCC(), st.Seal())
	want := []float64{0, 0, 0, 3, 3}
	for v := range want {
		if s[v] != want[v] {
			t.Fatalf("label[%d] = %v, want %v", v, s[v], want[v])
		}
	}
}

// TestPageRankFixpoint verifies the reference satisfies the PageRank
// equation at every vertex.
func TestPageRankFixpoint(t *testing.T) {
	edges := gen.RMAT(gen.RMATConfig{NumVertices: 500, NumEdges: 2500, A: 0.57, B: 0.19, C: 0.19, Seed: 4, MaxWeight: 4})
	g := graph.NewStoreFromEdges(500, edges).Seal()
	a := algo.NewPageRank()
	s := algo.Reference(a, g)
	for v := 0; v < g.NumVertices; v++ {
		sum := a.Base(graph.VertexID(v))
		ins := g.InNeighborsOf(graph.VertexID(v))
		for _, u := range ins {
			sum += a.Damping() * s[u] / float64(g.OutDegree(u))
		}
		if math.Abs(sum-s[v]) > 1e-4 {
			t.Fatalf("fixpoint violated at %d: eq=%v state=%v", v, sum, s[v])
		}
	}
}

// TestAdsorptionFixpoint verifies the weighted-share equation.
func TestAdsorptionFixpoint(t *testing.T) {
	edges := gen.RMAT(gen.RMATConfig{NumVertices: 300, NumEdges: 1500, A: 0.57, B: 0.19, C: 0.19, Seed: 5, MaxWeight: 8})
	g := graph.NewStoreFromEdges(300, edges).Seal()
	a := algo.NewAdsorption(300, 5)
	s := algo.Reference(a, g)
	for v := 0; v < g.NumVertices; v++ {
		sum := a.Base(graph.VertexID(v))
		ins := g.InNeighborsOf(graph.VertexID(v))
		iws := g.InWeightsOf(graph.VertexID(v))
		for i, u := range ins {
			tw := algo.TotalOutWeight(g, u)
			sum += a.Damping() * s[u] * float64(iws[i]) / tw
		}
		if math.Abs(sum-s[v]) > 1e-4 {
			t.Fatalf("fixpoint violated at %d: eq=%v state=%v", v, sum, s[v])
		}
	}
}

// TestMonotonicReferenceMatchesDijkstra cross-checks the worklist
// reference against an independent Dijkstra implementation on random
// graphs.
func TestMonotonicReferenceMatchesDijkstra(t *testing.T) {
	f := func(seed int64) bool {
		edges := gen.ErdosRenyi(gen.ErdosRenyiConfig{NumVertices: 120, NumEdges: 600, Seed: seed, MaxWeight: 16})
		g := graph.NewStoreFromEdges(120, edges).Seal()
		got := algo.Reference(algo.NewSSSP(0), g)
		want := dijkstra(g, 0)
		return algo.StatesEqual(got, want, 1e-9) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// dijkstra is a deliberately independent oracle (linear-scan PQ).
func dijkstra(g *graph.Snapshot, root graph.VertexID) []float64 {
	n := g.NumVertices
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	for {
		best := -1
		for v := 0; v < n; v++ {
			if !done[v] && !math.IsInf(dist[v], 1) && (best < 0 || dist[v] < dist[best]) {
				best = v
			}
		}
		if best < 0 {
			break
		}
		done[best] = true
		ns := g.OutNeighbors(graph.VertexID(best))
		ws := g.OutWeights(graph.VertexID(best))
		for i, w := range ns {
			if cand := dist[best] + float64(ws[i]); cand < dist[w] {
				dist[w] = cand
			}
		}
	}
	return dist
}

func TestInitialStates(t *testing.T) {
	g := chain(t)
	s := algo.InitialStates(algo.NewSSSP(0), g)
	if s[0] != 0 || !math.IsInf(s[1], 1) {
		t.Fatalf("initial states wrong: %v", s[:2])
	}
	pr := algo.NewPageRank()
	s = algo.InitialStates(pr, g)
	for _, v := range s {
		if v != pr.Base(0) {
			t.Fatalf("accumulative initial state %v, want %v", v, pr.Base(0))
		}
	}
}

func TestStatesEqual(t *testing.T) {
	inf := math.Inf(1)
	if i := algo.StatesEqual([]float64{1, inf}, []float64{1, inf}, 0); i >= 0 {
		t.Fatalf("inf==inf mismatch at %d", i)
	}
	if i := algo.StatesEqual([]float64{1, 2}, []float64{1, 3}, 0.5); i != 1 {
		t.Fatalf("want mismatch at 1, got %d", i)
	}
}

func TestKindString(t *testing.T) {
	if algo.Accumulative.String() != "accumulative" || algo.Monotonic.String() != "monotonic" {
		t.Fatal("Kind.String broken")
	}
}
