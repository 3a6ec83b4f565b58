package tdgraph_test

import (
	"bytes"
	"path/filepath"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/graph"
)

// TestSessionSaveLoad round-trips a checkpoint and continues streaming on
// the restored session.
func TestSessionSaveLoad(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.ApplyBatch([]tdgraph.Update{
		{Edge: tdgraph.Edge{Src: 0, Dst: 2999, Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := tdgraph.LoadSession(tdgraph.NewSSSP(0), &buf, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.NumVertices() != s.NumVertices() || restored.NumEdges() != s.NumEdges() {
		t.Fatalf("restored shape %d/%d vs %d/%d",
			restored.NumVertices(), restored.NumEdges(), s.NumVertices(), s.NumEdges())
	}
	for v := 0; v < nv; v++ {
		if restored.State(tdgraph.VertexID(v)) != s.State(tdgraph.VertexID(v)) {
			t.Fatalf("state of %d differs after restore", v)
		}
	}
	// The restored session must keep streaming correctly.
	if _, err := restored.ApplyBatch([]tdgraph.Update{
		{Edge: tdgraph.Edge{Src: 2999, Dst: 7, Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	got := restored.State(7)
	restored.Recompute()
	if restored.State(7) != got {
		t.Fatalf("post-restore incremental state %v != recompute %v", got, restored.State(7))
	}
}

func TestSessionSaveLoadFile(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewCC(), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	path := filepath.Join(t.TempDir(), "ckpt.tds")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := tdgraph.LoadSessionFile(tdgraph.NewCC(), path, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.NumEdges() != s.NumEdges() {
		t.Fatal("file restore changed edge count")
	}
}

func TestLoadSessionRejectsGarbage(t *testing.T) {
	if _, err := tdgraph.LoadSession(tdgraph.NewCC(), bytes.NewReader([]byte{1, 2, 3}), tdgraph.SessionOptions{}); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
	if _, err := tdgraph.LoadSession(nil, bytes.NewReader(nil), tdgraph.SessionOptions{}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
}

// TestApplySnapshot drives a session from periodic full snapshots.
func TestApplySnapshot(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Build "the next feed snapshot": same graph with some churn.
	b := graph.NewBuilderFromEdges(nv, edges)
	b.Apply([]tdgraph.Update{
		{Edge: tdgraph.Edge{Src: 5, Dst: 6, Weight: 1}},
		{Edge: tdgraph.Edge{Src: edges[0].Src, Dst: edges[0].Dst}, Delete: true},
	})
	next := b.Snapshot()
	res, err := s.ApplySnapshot(next)
	if err != nil {
		t.Fatal(err)
	}
	if res.Added == 0 && res.Deleted == 0 {
		t.Fatalf("snapshot diff applied nothing: %+v", res)
	}
	if s.NumEdges() != next.NumEdges() {
		t.Fatalf("session has %d edges, feed snapshot %d", s.NumEdges(), next.NumEdges())
	}
	got := append([]float64(nil), s.States()...)
	s.Recompute()
	for v := range got {
		if got[v] != s.State(tdgraph.VertexID(v)) {
			t.Fatalf("snapshot-driven state of %d diverged", v)
		}
	}
}
