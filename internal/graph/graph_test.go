package graph_test

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/tdgraph/tdgraph/internal/graph"
)

func buildSample(t *testing.T) *graph.Snapshot {
	t.Helper()
	b := graph.NewBuilder(6)
	edges := []graph.Edge{
		{Src: 0, Dst: 1, Weight: 2}, {Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 3, Weight: 4}, {Src: 2, Dst: 3, Weight: 1},
		{Src: 3, Dst: 4, Weight: 5}, {Src: 4, Dst: 5, Weight: 1},
	}
	for _, e := range edges {
		if !b.AddEdge(e.Src, e.Dst, e.Weight) {
			t.Fatalf("AddEdge(%v) reported duplicate", e)
		}
	}
	return b.Snapshot()
}

func TestSnapshotBasics(t *testing.T) {
	s := buildSample(t)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumEdges() != 6 {
		t.Fatalf("edges = %d, want 6", s.NumEdges())
	}
	if got := s.OutDegree(0); got != 2 {
		t.Fatalf("outdeg(0) = %d, want 2", got)
	}
	if got := s.InDegree(3); got != 2 {
		t.Fatalf("indeg(3) = %d, want 2", got)
	}
	if !s.HasEdge(2, 3) || s.HasEdge(3, 2) {
		t.Fatal("HasEdge wrong")
	}
	if w, ok := s.EdgeWeight(1, 3); !ok || w != 4 {
		t.Fatalf("EdgeWeight(1,3) = %v,%v", w, ok)
	}
}

func TestBuilderAddDelete(t *testing.T) {
	b := graph.NewBuilder(4)
	if !b.AddEdge(0, 1, 1) {
		t.Fatal("first add failed")
	}
	if b.AddEdge(0, 1, 2) {
		t.Fatal("duplicate add created an edge")
	}
	s := b.Snapshot()
	if w, _ := s.EdgeWeight(0, 1); w != 2 {
		t.Fatalf("duplicate add should overwrite weight, got %v", w)
	}
	if !b.DeleteEdge(0, 1) {
		t.Fatal("delete failed")
	}
	if b.DeleteEdge(0, 1) {
		t.Fatal("double delete succeeded")
	}
	if b.NumEdges() != 0 {
		t.Fatalf("edges = %d, want 0", b.NumEdges())
	}
}

func TestApplyResult(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	res := b.Apply([]graph.Update{
		{Edge: graph.Edge{Src: 2, Dst: 3, Weight: 1}},    // add
		{Edge: graph.Edge{Src: 0, Dst: 1}, Delete: true}, // delete
		{Edge: graph.Edge{Src: 0, Dst: 1}, Delete: true}, // skipped
		{Edge: graph.Edge{Src: 2, Dst: 3, Weight: 2}},    // weight update
		{Edge: graph.Edge{Src: 2, Dst: 3, Weight: 2}},    // skipped (same weight)
		{Edge: graph.Edge{Src: 4, Dst: 3, Weight: 1}},    // add
	})
	if res.Added != 2 || res.Deleted != 1 || res.Skipped != 2 || res.WeightChanged != 1 {
		t.Fatalf("got %+v", res)
	}
	// The weight update surfaces as delete(old)+add(new), and the add of
	// 2→3 at weight 1 it superseded is no longer listed.
	if len(res.DeletedEdges) != 2 || len(res.AddedEdges) != 2 {
		t.Fatalf("effective edges: %d deleted, %d added", len(res.DeletedEdges), len(res.AddedEdges))
	}
	// Affected: destinations of effective updates, first-touch order.
	want := []graph.VertexID{3, 1}
	if len(res.Affected) != 2 || res.Affected[0] != want[0] || res.Affected[1] != want[1] {
		t.Fatalf("affected = %v, want %v", res.Affected, want)
	}
}

// TestCSRCSCDuality checks the CSC mirror is the exact transpose of the
// CSR side on random graphs.
func TestCSRCSCDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			src := graph.VertexID(rng.Intn(n))
			dst := graph.VertexID(rng.Intn(n))
			b.AddEdge(src, dst, float32(1+rng.Intn(9)))
		}
		s := b.Snapshot()
		if err := s.Validate(); err != nil {
			t.Log(err)
			return false
		}
		// Every out-edge must appear exactly once as an in-edge with the
		// same weight, and vice versa (counts match by Validate).
		for v := 0; v < n; v++ {
			ns := s.OutNeighbors(graph.VertexID(v))
			ws := s.OutWeights(graph.VertexID(v))
			for i, d := range ns {
				found := false
				ins := s.InNeighborsOf(d)
				iws := s.InWeightsOf(d)
				for j, u := range ins {
					if u == graph.VertexID(v) && iws[j] == ws[i] {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyDeleteInverse checks apply(add X) followed by apply(delete X)
// restores the original edge list.
func TestApplyDeleteInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), 1)
		}
		before := b.Snapshot().EdgeList()
		var batch []graph.Update
		for i := 0; i < n; i++ {
			src := graph.VertexID(rng.Intn(n))
			dst := graph.VertexID(rng.Intn(n))
			if !b.HasEdge(src, dst) {
				batch = append(batch, graph.Update{Edge: graph.Edge{Src: src, Dst: dst, Weight: 7}})
			}
		}
		b.Apply(batch)
		var undo []graph.Update
		for _, u := range batch {
			undo = append(undo, graph.Update{Edge: u.Edge, Delete: true})
		}
		b.Apply(undo)
		after := b.Snapshot().EdgeList()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionByEdges(t *testing.T) {
	s := buildSample(t)
	for _, n := range []int{1, 2, 3, 8} {
		chunks := graph.PartitionByEdges(s, n)
		if len(chunks) != n {
			t.Fatalf("got %d chunks, want %d", len(chunks), n)
		}
		// Chunks must tile the vertex range exactly.
		var cursor graph.VertexID
		for _, c := range chunks {
			if c.Start != cursor {
				t.Fatalf("chunk starts at %d, want %d", c.Start, cursor)
			}
			cursor = c.End
		}
		if int(cursor) != s.NumVertices {
			t.Fatalf("chunks end at %d, want %d", cursor, s.NumVertices)
		}
	}
}

func TestComputeStats(t *testing.T) {
	s := buildSample(t)
	st := s.ComputeStats()
	if st.Vertices != 6 || st.Edges != 6 {
		t.Fatalf("stats %+v", st)
	}
	if st.MaxDegree != 2 {
		t.Fatalf("max degree = %d, want 2", st.MaxDegree)
	}
	if st.Diameter < 3 {
		t.Fatalf("diameter = %d, want >= 3 (path 0..5 exists)", st.Diameter)
	}
}

func TestEdgeListSorted(t *testing.T) {
	s := buildSample(t)
	el := s.EdgeList()
	if !sort.SliceIsSorted(el, func(i, j int) bool {
		if el[i].Src != el[j].Src {
			return el[i].Src < el[j].Src
		}
		return el[i].Dst < el[j].Dst
	}) {
		t.Fatal("EdgeList not src-major sorted")
	}
}

func TestChunkContains(t *testing.T) {
	c := graph.Chunk{Start: 10, End: 20}
	if c.Len() != 10 || !c.Contains(10) || c.Contains(20) || c.Contains(9) {
		t.Fatalf("chunk semantics wrong: %+v", c)
	}
}
