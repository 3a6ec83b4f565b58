package tdgraph_test

import (
	"math"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
)

func sessionEdges() ([]tdgraph.Edge, int) {
	return gen.RMAT(gen.RMATConfig{
		NumVertices: 3000, NumEdges: 18000,
		A: 0.57, B: 0.19, C: 0.19, Seed: 5, MaxWeight: 8,
	}), 3000
}

// engines are the three ways a batch is processed here: the Session
// (nil) and the paper's two functional engines.
var engines = map[string]func(*engine.Runtime) engine.System{
	"topology-driven": enginetest.TopologyDriven,
	"baseline":        enginetest.Baseline,
	"native":          nil,
}

// stepper converges SSSP from vertex 0 on edges, in a Session when
// system is nil and in an enginetest.Runner otherwise. The step it
// returns applies one batch and returns the incremental states and the
// from-scratch ones.
func stepper(t *testing.T, system func(*engine.Runtime) engine.System, edges []tdgraph.Edge, nv int) func([]tdgraph.Update) (got, want []float64) {
	t.Helper()
	if system != nil {
		ref := enginetest.NewRunner(tdgraph.NewSSSP(0), edges, nv, system)
		return func(b []tdgraph.Update) ([]float64, []float64) {
			ref.Apply(b)
			return ref.S, algo.Reference(ref.Algo, ref.G)
		}
	}
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return func(b []tdgraph.Update) ([]float64, []float64) {
		if _, err := s.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		got := append([]float64(nil), s.States()...)
		s.Recompute()
		return got, s.States()
	}
}

// TestSessionLifecycle streams several batches through every engine and
// cross-checks against a from-scratch recompute.
func TestSessionLifecycle(t *testing.T) {
	for name, system := range engines {
		t.Run(name, func(t *testing.T) {
			edges, nv := sessionEdges()
			step := stepper(t, system, edges, nv)
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
				got, want := step(updates)
				if v := algo.StatesEqual(got, want, 0); v >= 0 {
					t.Fatalf("batch %d: incremental state of %d = %v, recompute = %v", batch, v, got[v], want[v])
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
		for name, system := range engines {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				edges := []tdgraph.Edge{{Src: 0, Dst: 1, Weight: 12}, {Src: 1, Dst: 2, Weight: 1}}
				got, want := stepper(t, system, edges, 4)(tc.batch)
				if got[tc.vertex] != tc.want {
					t.Fatalf("state[%d] = %v, want %v", tc.vertex, got[tc.vertex], tc.want)
				}
				for v, w := range want {
					if math.Float64bits(got[v]) != math.Float64bits(w) {
						t.Fatalf("incremental state[%d] = %v, recompute = %v", v, got[v], w)
					}
				}
			})
		}
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
	defer s.Close()
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

// TestSessionRejects a session without an algorithm.
func TestSessionRejects(t *testing.T) {
	if _, err := tdgraph.NewSession(nil, nil, 1, tdgraph.SessionOptions{}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
}

// TestSessionNativePageRank streams accumulative batches through the
// native parallel engine and checks against a recompute (loose tolerance:
// delta truncation compounds across batches).
func TestSessionNativePageRank(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewPageRank(), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
