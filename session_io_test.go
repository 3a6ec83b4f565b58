package tdgraph_test

import (
	"bytes"
	"path/filepath"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
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
