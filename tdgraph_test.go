package tdgraph_test

import (
	"math"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
)

func sessionEdges() ([]tdgraph.Edge, int) {
	return gen.RMAT(gen.RMATConfig{
		NumVertices: 3000, NumEdges: 18000,
		A: 0.57, B: 0.19, C: 0.19, Seed: 5, MaxWeight: 8,
	}), 3000
}

// TestSessionLifecycle streams several batches through every engine kind
// and cross-checks against a from-scratch recompute.
func TestSessionLifecycle(t *testing.T) {
	kinds := map[string]tdgraph.SessionOptions{
		"topology-driven": {Engine: tdgraph.EngineTopologyDriven},
		"baseline":        {Engine: tdgraph.EngineBaseline},
		"native":          {Engine: tdgraph.EngineNativeParallel},
	}
	for name, opt := range kinds {
		t.Run(name, func(t *testing.T) {
			edges, nv := sessionEdges()
			s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, opt)
			if err != nil {
				t.Fatal(err)
			}
			for batch := 0; batch < 3; batch++ {
				var updates []tdgraph.Update
				for i := 0; i < 150; i++ {
					src := tdgraph.VertexID((batch*7919 + i*13) % nv)
					dst := tdgraph.VertexID((batch*104729 + i*31) % nv)
					if src == dst {
						continue
					}
					updates = append(updates, tdgraph.Update{
						Edge: tdgraph.Edge{Src: src, Dst: dst, Weight: float32(1 + i%8)},
					})
				}
				if _, err := s.ApplyBatch(updates); err != nil {
					t.Fatal(err)
				}
				got := append([]float64(nil), s.States()...)
				s.Recompute()
				for v := range got {
					w := s.State(tdgraph.VertexID(v))
					if got[v] != w && !(math.IsInf(got[v], 1) && math.IsInf(w, 1)) {
						t.Fatalf("batch %d: incremental state of %d = %v, recompute = %v", batch, v, got[v], w)
					}
				}
			}
		})
	}
}

// TestSessionSameEdgeTwiceInOneBatch: a batch that adds (or re-weights)
// an edge and then deletes or re-weights it again must not leave the
// superseded add behind for the repair to relax along. On {0→1 w12,
// 1→2 w1} every engine used to answer 19, 14 and 12.5 here, identically
// on every replica, so only a recompute could tell.
func TestSessionSameEdgeTwiceInOneBatch(t *testing.T) {
	inf := math.Inf(1)
	add := func(src, dst tdgraph.VertexID, w float32) tdgraph.Update {
		return tdgraph.Update{Edge: tdgraph.Edge{Src: src, Dst: dst, Weight: w}}
	}
	del := func(src, dst tdgraph.VertexID) tdgraph.Update {
		return tdgraph.Update{Edge: tdgraph.Edge{Src: src, Dst: dst}, Delete: true}
	}
	for _, tc := range []struct {
		name   string
		batch  []tdgraph.Update
		vertex tdgraph.VertexID
		want   float64
	}{
		{"re-weighted then deleted", []tdgraph.Update{add(1, 2, 7), del(1, 2)}, 2, inf},
		{"added then deleted", []tdgraph.Update{add(1, 3, 2), del(1, 3)}, 3, inf},
		{"re-weighted down then up", []tdgraph.Update{add(1, 2, 0.5), add(1, 2, 7)}, 2, 19},
	} {
		for name, engine := range map[string]tdgraph.EngineKind{
			"topology-driven": tdgraph.EngineTopologyDriven,
			"baseline":        tdgraph.EngineBaseline,
			"native":          tdgraph.EngineNativeParallel,
		} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				s, err := tdgraph.NewSession(tdgraph.NewSSSP(0),
					[]tdgraph.Edge{{Src: 0, Dst: 1, Weight: 12}, {Src: 1, Dst: 2, Weight: 1}}, 4,
					tdgraph.SessionOptions{Engine: engine})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if _, err := s.ApplyBatch(tc.batch); err != nil {
					t.Fatal(err)
				}
				got := append([]float64(nil), s.States()...)
				if got[tc.vertex] != tc.want {
					t.Fatalf("state[%d] = %v, want %v", tc.vertex, got[tc.vertex], tc.want)
				}
				s.Recompute()
				for v, w := range s.States() {
					if math.Float64bits(got[v]) != math.Float64bits(w) {
						t.Fatalf("incremental state[%d] = %v, recompute = %v", v, got[v], w)
					}
				}
			})
		}
	}
}

// TestSessionSimulated attaches the architectural simulator and checks
// that cycle counts and counters come back.
func TestSessionSimulated(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv,
		tdgraph.SessionOptions{Simulate: true, Cores: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ApplyBatch([]tdgraph.Update{
		{Edge: tdgraph.Edge{Src: 0, Dst: 2999, Weight: 1}},
		{Edge: tdgraph.Edge{Src: 2999, Dst: 1500, Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added == 0 {
		t.Fatal("batch added nothing")
	}
	if s.LastCycles() <= 0 {
		t.Fatal("no simulated cycles recorded")
	}
	if s.Metrics() == nil {
		t.Fatal("no metrics recorded")
	}
}

// TestSessionGrowth: batches referencing unseen vertex IDs must grow the
// session's graph.
func TestSessionGrowth(t *testing.T) {
	s, err := tdgraph.NewSession(tdgraph.NewCC(), []tdgraph.Edge{{Src: 0, Dst: 1, Weight: 1}}, 2,
		tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyBatch([]tdgraph.Update{{Edge: tdgraph.Edge{Src: 1, Dst: 9, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 10 {
		t.Fatalf("vertices = %d, want 10", s.NumVertices())
	}
	if s.State(9) != 0 {
		t.Fatalf("label of grown vertex = %v, want 0", s.State(9))
	}
}

// TestSessionRejects misconfigurations.
func TestSessionRejects(t *testing.T) {
	if _, err := tdgraph.NewSession(nil, nil, 1, tdgraph.SessionOptions{}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	if _, err := tdgraph.NewSession(tdgraph.NewSSSP(0), nil, 10,
		tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel, Simulate: true}); err == nil {
		t.Fatal("native engine accepted simulation")
	}
}

// TestSessionNativePageRank streams accumulative batches through the
// native parallel engine and checks against a recompute (loose tolerance:
// delta truncation compounds across batches).
func TestSessionNativePageRank(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewPageRank(), edges, nv,
		tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 2; batch++ {
		var updates []tdgraph.Update
		for i := 0; i < 100; i++ {
			src := tdgraph.VertexID((batch*31 + i*17) % nv)
			dst := tdgraph.VertexID((batch*97 + i*41) % nv)
			if src == dst {
				continue
			}
			updates = append(updates, tdgraph.Update{Edge: tdgraph.Edge{Src: src, Dst: dst, Weight: 1}})
		}
		if _, err := s.ApplyBatch(updates); err != nil {
			t.Fatal(err)
		}
	}
	got := append([]float64(nil), s.States()...)
	s.Recompute()
	for v := range got {
		if math.Abs(got[v]-s.State(tdgraph.VertexID(v))) > 1e-3 {
			t.Fatalf("native pagerank state of %d = %v, recompute %v", v, got[v], s.State(tdgraph.VertexID(v)))
		}
	}
}
