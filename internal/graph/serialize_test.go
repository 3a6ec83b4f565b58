package graph_test

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/tdgraph/tdgraph/internal/graph"
)

func TestBinaryRoundTrip(t *testing.T) {
	s := buildSample(t)
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := graph.ReadBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices != s.NumVertices || got.NumEdges() != s.NumEdges() {
		t.Fatalf("shape changed: %d/%d vs %d/%d",
			got.NumVertices, got.NumEdges(), s.NumVertices, s.NumEdges())
	}
	a, b := s.EdgeList(), got.EdgeList()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// CSC rebuilt.
	if got.InOffsets == nil {
		t.Fatal("CSC not rebuilt on load")
	}
}

// TestReadBinaryCSR holds the restore path's decode to ReadBinary's
// without the mirror: the same CSR, no CSC.
func TestReadBinaryCSR(t *testing.T) {
	s := buildSample(t)
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := graph.ReadBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := graph.ReadBinaryCSR(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.InOffsets != nil || got.InNeighbors != nil || got.InWeights != nil {
		t.Fatal("ReadBinaryCSR built a CSC")
	}
	if got.NumVertices != want.NumVertices || !slices.Equal(got.Offsets, want.Offsets) ||
		!slices.Equal(got.Neighbors, want.Neighbors) || !slices.Equal(got.Weights, want.Weights) {
		t.Fatal("ReadBinaryCSR's CSR differs from ReadBinary's")
	}
	if _, err := graph.ReadBinaryCSR(buf.Bytes()[:buf.Len()-1]); err == nil {
		t.Fatal("ReadBinaryCSR accepted a truncated graph")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		st := graph.NewStore(n)
		for i := 0; i < 3*n; i++ {
			st.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)), float32(rng.Intn(9)))
		}
		s := st.Seal()
		var buf bytes.Buffer
		if err := s.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := graph.ReadBinary(buf.Bytes())
		if err != nil {
			return false
		}
		a, g2 := s.EdgeList(), got.EdgeList()
		if len(a) != len(g2) {
			return false
		}
		for i := range a {
			if a[i] != g2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{
		{},
		{1, 2, 3},
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
	} {
		if _, err := graph.ReadBinary(in); err == nil {
			t.Fatalf("garbage %v accepted", in)
		}
	}
	// Valid magic but truncated body.
	s := buildSample(t)
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := graph.ReadBinary(trunc); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// One byte the header does not account for.
	if _, err := graph.ReadBinary(append(buf.Bytes(), 0)); err == nil {
		t.Fatal("snapshot with a trailing byte accepted")
	}
	// A header claiming 2^32 edges over the same few bytes: refused on the
	// length, before anything is sized from it.
	huge := append([]byte(nil), buf.Bytes()...)
	huge[16] = 1 // E's fifth byte
	if _, err := graph.ReadBinary(huge); err == nil {
		t.Fatal("snapshot whose header outruns its bytes accepted")
	}
}
