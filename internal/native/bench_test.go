package native

import (
	"math/rand"
	"testing"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
)

// buildSessionFixture returns a warmed session over an |E|-edge random
// graph plus the two single-update batches used to toggle one edge.
func buildSessionFixture(nv, ne, workers int) (*Session, []graph.Update, []graph.Update) {
	rng := rand.New(rand.NewSource(42))
	st := graph.NewStore(nv)
	for i := 0; i < ne; i++ {
		st.AddEdge(graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv)), float32(1+rng.Intn(16)))
	}
	s := NewSession(algo.NewSSSP(0), st, Config{Workers: workers})
	e := graph.Edge{Src: graph.VertexID(nv / 3), Dst: graph.VertexID(nv / 2), Weight: 3}
	add := []graph.Update{{Edge: e}}
	del := []graph.Update{{Edge: e, Delete: true}}
	return s, add, del
}

// TestSessionSteadyStateZeroAllocs is the zero-allocs-per-update
// guarantee: once buffers are warm, ApplyBatch must not allocate — the
// store reuses its result buffers, released inline blocks and hub
// chunks, the repair reuses its scratch, and the worklists and worker
// pool are persistent. The second toggle is an edge between two vertices
// with no other edge, so each round both endpoints release their blocks
// and take them back. Then two hubs of degree 129 — the SSSP root's
// out-edges, and vertex 1026's in-edges — each delete the first edge of
// their head and add it back: the swap-remove fills the hole from their
// second chunk, which empties but is kept, and the re-add refills it,
// while the repair and propagation iterate the hubs' runs.
func TestSessionSteadyStateZeroAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		s, add, del := buildSessionFixture(1024, 8192, workers)
		st := s.Store()
		iso := graph.Edge{Src: 1024, Dst: 1025, Weight: 1} // past the fixture's vertices
		isoAdd, isoDel := []graph.Update{{Edge: iso}}, []graph.Update{{Edge: iso, Delete: true}}
		const root, inHub = 0, 1026
		var grow []graph.Update
		for v := graph.VertexID(1); st.OutDegree(root)+len(grow) < 129; v++ {
			if !st.HasEdge(root, v) {
				grow = append(grow, graph.Update{Edge: graph.Edge{Src: root, Dst: v, Weight: 2}})
			}
		}
		for v := graph.VertexID(inHub + 1); v <= inHub+129; v++ {
			grow = append(grow, graph.Update{Edge: graph.Edge{Src: v, Dst: inHub, Weight: 1}})
		}
		s.ApplyBatch(grow)
		if st.OutDegree(root) != 129 || st.InDegree(inHub) != 129 {
			t.Fatalf("hub degrees %d out, %d in; want 129", st.OutDegree(root), st.InDegree(inHub))
		}
		one := make([]graph.Update, 1)
		rotate := func(e graph.Edge) {
			one[0] = graph.Update{Edge: e, Delete: true}
			s.ApplyBatch(one)
			one[0].Delete = false
			s.ApplyBatch(one)
		}
		toggle := func() {
			s.ApplyBatch(del)
			s.ApplyBatch(add)
			s.ApplyBatch(isoAdd)
			s.ApplyBatch(isoDel)
			ns, ws := st.OutEdges(root, 0)
			rotate(graph.Edge{Src: root, Dst: ns[0], Weight: ws[0]})
			ns, ws = st.InEdges(inHub, 0)
			rotate(graph.Edge{Src: ns[0], Dst: inHub, Weight: ws[0]})
		}
		// Warm up: grow every reusable buffer to steady-state capacity.
		for i := 0; i < 50; i++ {
			toggle()
		}
		allocs := testing.AllocsPerRun(200, toggle)
		s.Close()
		if allocs != 0 {
			t.Errorf("workers=%d: steady-state ApplyBatch allocates %.1f objects per toggle, want 0", workers, allocs)
		}
	}
}

// BenchmarkSessionApplySingleUpdate measures the incremental apply path:
// one edge toggled per op on a warm session.
func BenchmarkSessionApplySingleUpdate(b *testing.B) {
	s, add, del := buildSessionFixture(4096, 1<<15, 1)
	defer s.Close()
	s.ApplyBatch(del)
	s.ApplyBatch(add)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			s.ApplyBatch(del)
		} else {
			s.ApplyBatch(add)
		}
	}
}

// BenchmarkCSRRebuildSingleUpdate measures the path the session replaces:
// apply the same single update to a store and seal the full CSR+CSC
// snapshot (the per-batch cost of the immutable representation).
func BenchmarkCSRRebuildSingleUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const nv = 4096
	st := graph.NewStore(nv)
	for i := 0; i < 1<<15; i++ {
		st.AddEdge(graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv)), float32(1+rng.Intn(16)))
	}
	e := graph.Edge{Src: nv / 3, Dst: nv / 2, Weight: 3}
	add := []graph.Update{{Edge: e}}
	del := []graph.Update{{Edge: e, Delete: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			st.Apply(del)
		} else {
			st.Apply(add)
		}
		_ = st.Seal()
	}
}
