package gen_test

import (
	"testing"
	"testing/quick"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
)

func TestRMATDeterministic(t *testing.T) {
	cfg := gen.RMATConfig{NumVertices: 1000, NumEdges: 5000, A: 0.57, B: 0.19, C: 0.19, Seed: 7, MaxWeight: 8}
	a := gen.RMAT(cfg)
	b := gen.RMAT(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestRMATShape(t *testing.T) {
	edges := gen.RMAT(gen.RMATConfig{NumVertices: 4096, NumEdges: 40000, A: 0.57, B: 0.19, C: 0.19, Seed: 1})
	if len(edges) < 35000 {
		t.Fatalf("RMAT produced only %d edges", len(edges))
	}
	s := graph.NewStoreFromEdges(4096, edges).Seal()
	st := s.ComputeStats()
	// Power-law skew: the max degree should dwarf the average.
	if float64(st.MaxDegree) < 10*st.AvgDegree {
		t.Fatalf("no skew: max %d vs avg %.1f", st.MaxDegree, st.AvgDegree)
	}
	// No self loops or duplicates.
	seen := map[uint64]bool{}
	for _, e := range edges {
		if e.Src == e.Dst {
			t.Fatal("self loop")
		}
		k := uint64(e.Src)<<32 | uint64(e.Dst)
		if seen[k] {
			t.Fatal("duplicate edge")
		}
		seen[k] = true
	}
}

func TestWattsStrogatzShape(t *testing.T) {
	edges := gen.WattsStrogatz(gen.WattsStrogatzConfig{NumVertices: 2000, K: 3, Beta: 0.02, Seed: 2, MaxWeight: 8})
	if len(edges) != 2*2000*3 {
		t.Fatalf("edges = %d, want %d (symmetric)", len(edges), 2*2000*3)
	}
	// Symmetry: every edge has its reverse with equal weight.
	type key struct{ s, d graph.VertexID }
	w := map[key]float32{}
	for _, e := range edges {
		w[key{e.Src, e.Dst}] = e.Weight
	}
	for _, e := range edges {
		if rw, ok := w[key{e.Dst, e.Src}]; !ok || rw != e.Weight {
			t.Fatalf("missing/mismatched reverse of %+v", e)
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	edges := gen.ErdosRenyi(gen.ErdosRenyiConfig{NumVertices: 500, NumEdges: 2000, Seed: 3})
	if len(edges) != 2000 {
		t.Fatalf("edges = %d, want 2000", len(edges))
	}
}

func TestPresets(t *testing.T) {
	if len(gen.Presets()) != 6 {
		t.Fatalf("want 6 presets")
	}
	for _, p := range gen.Presets() {
		edges, nv := p.Generate(0.05)
		if nv < 1000 {
			t.Fatalf("%s: too few vertices %d", p.Name, nv)
		}
		if len(edges) == 0 {
			t.Fatalf("%s: no edges", p.Name)
		}
		for _, e := range edges {
			if int(e.Src) >= nv || int(e.Dst) >= nv {
				t.Fatalf("%s: edge out of range", p.Name)
			}
		}
	}
	if _, err := gen.PresetByName("XX"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	p, err := gen.PresetByName("LJ")
	if err != nil || p.FullName != "LiveJournal" {
		t.Fatalf("PresetByName(LJ) = %+v, %v", p, err)
	}
}

// TestRelabelBFSIsPermutation checks relabeling is a bijection that
// preserves the multigraph structure.
func TestRelabelBFSIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		edges := gen.ErdosRenyi(gen.ErdosRenyiConfig{NumVertices: 100, NumEdges: 300, Seed: seed})
		out := gen.RelabelBFS(edges, 100)
		if len(out) != len(edges) {
			return false
		}
		// Degree multiset must be preserved.
		degIn := make([]int, 100)
		degOut := make([]int, 100)
		for i := range edges {
			degIn[edges[i].Src]++
			degOut[out[i].Src]++
		}
		sortInts(degIn)
		sortInts(degOut)
		for i := range degIn {
			if degIn[i] != degOut[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// TestRelabelBFSLocality: for a graph with random vertex labels, BFS
// relabeling should shrink the mean |src-dst| ID gap substantially (the
// property the chunked per-core dispatch depends on).
func TestRelabelBFSLocality(t *testing.T) {
	edges := gen.ErdosRenyi(gen.ErdosRenyiConfig{NumVertices: 2000, NumEdges: 6000, Seed: 9})
	gap := func(es []graph.Edge) float64 {
		var s float64
		for _, e := range es {
			d := int64(e.Src) - int64(e.Dst)
			if d < 0 {
				d = -d
			}
			s += float64(d)
		}
		return s / float64(len(es))
	}
	rel := gen.RelabelBFS(edges, 2000)
	if gap(rel) > gap(edges) {
		t.Fatalf("relabeling did not improve locality: %.1f vs %.1f", gap(rel), gap(edges))
	}
}
