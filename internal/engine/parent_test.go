package engine_test

import (
	"testing"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
)

// TestEqualValueCycleDeletion is the adversarial case for dependency-tree
// reconstruction: with CC every connected vertex carries the same label,
// so a value-matching parent choice can pick a cycle partner instead of
// the bridge that actually supports the label. Deleting the bridge must
// still reset the orphaned cycle.
//
// Graph: 0 → 5 (bridge into relay), 5 → 2 (bridge into cycle), 1 ⇄ 2.
// All of {0,1,2,5} get label 0. Vertex 1 precedes 5 in vertex 2's sorted
// in-neighbour list, so a naive value-match makes parent[2] = 1 and
// parent[1] = 2 — mutual support. Deleting 5→2 must re-label {1,2} to 1.
func TestEqualValueCycleDeletion(t *testing.T) {
	st := graph.NewStore(6)
	st.AddEdge(0, 5, 1)
	st.AddEdge(5, 2, 1)
	st.AddEdge(1, 2, 1)
	st.AddEdge(2, 1, 1)
	oldG := st.Seal()
	cc := algo.NewCC()
	warm := algo.Reference(cc, oldG)
	if warm[1] != 0 || warm[2] != 0 {
		t.Fatalf("warm labels wrong: %v", warm)
	}
	res := st.Apply([]graph.Update{{Edge: graph.Edge{Src: 5, Dst: 2}, Delete: true}})
	newG := st.Seal()
	rt := engine.NewRuntime(cc, oldG, newG, warm, engine.Options{Cores: 2})
	sys := engine.NewBaseline(engine.LigraO(), rt)
	sys.Process(res)
	want := algo.Reference(cc, newG)
	if want[1] != 1 || want[2] != 1 {
		t.Fatalf("oracle labels unexpected: %v", want)
	}
	if i := algo.StatesEqual(rt.S, want, 0); i >= 0 {
		t.Fatalf("stale label survived at vertex %d: got %v want %v", i, rt.S[i], want[i])
	}
}

// TestEqualValueCycleDeletionSSWP is the same trap for max-selection:
// equal bottleneck capacities around a cycle.
func TestEqualValueCycleDeletionSSWP(t *testing.T) {
	st := graph.NewStore(6)
	st.AddEdge(0, 5, 8)
	st.AddEdge(5, 2, 8)
	st.AddEdge(1, 2, 8)
	st.AddEdge(2, 1, 8)
	oldG := st.Seal()
	a := algo.NewSSWP(0)
	warm := algo.Reference(a, oldG)
	res := st.Apply([]graph.Update{{Edge: graph.Edge{Src: 5, Dst: 2}, Delete: true}})
	newG := st.Seal()
	rt := engine.NewRuntime(a, oldG, newG, warm, engine.Options{Cores: 2})
	sys := engine.NewBaseline(engine.LigraO(), rt)
	sys.Process(res)
	want := algo.Reference(a, newG)
	if i := algo.StatesEqual(rt.S, want, 0); i >= 0 {
		t.Fatalf("stale capacity survived at vertex %d: got %v want %v", i, rt.S[i], want[i])
	}
}
