package stream_test

import (
	"testing"
	"testing/quick"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/stream"
)

func sampleEdges(seed int64) []graph.Edge {
	return gen.ErdosRenyi(gen.ErdosRenyiConfig{NumVertices: 500, NumEdges: 3000, Seed: seed, MaxWeight: 8})
}

func TestBuildWarmupFraction(t *testing.T) {
	edges := sampleEdges(1)
	w := stream.Build(edges, 500, stream.Config{WarmupFraction: 0.5, BatchSize: 100, AddFraction: 0.5, NumBatches: 2, Seed: 1})
	if got, want := len(w.Warmup), len(edges)/2; got != want {
		t.Fatalf("warmup = %d, want %d", got, want)
	}
	if len(w.Batches) != 2 {
		t.Fatalf("batches = %d, want 2", len(w.Batches))
	}
	for _, b := range w.Batches {
		if len(b) != 100 {
			t.Fatalf("batch size = %d, want 100", len(b))
		}
	}
}

func TestBuildComposition(t *testing.T) {
	edges := sampleEdges(2)
	w := stream.Build(edges, 500, stream.Config{WarmupFraction: 0.5, BatchSize: 200, AddFraction: 0.75, NumBatches: 1, Seed: 2})
	adds, dels := 0, 0
	for _, u := range w.Batches[0] {
		if u.Delete {
			dels++
		} else {
			adds++
		}
	}
	if adds != 150 || dels != 50 {
		t.Fatalf("composition adds=%d dels=%d, want 150/50", adds, dels)
	}
}

// TestBuildDeletesAreLive: every deletion in a constructed workload must
// refer to an edge that is live at the time it is applied, so the store
// never skips (property over seeds).
func TestBuildDeletesAreLive(t *testing.T) {
	f := func(seed int64) bool {
		edges := sampleEdges(seed)
		w := stream.Build(edges, 500, stream.Config{
			WarmupFraction: 0.5, BatchSize: 150, AddFraction: 0.4, NumBatches: 3, Seed: seed,
		})
		st := graph.NewStoreFromEdges(w.NumVertices, w.Warmup)
		for _, batch := range w.Batches {
			res := st.Apply(batch)
			if res.Skipped != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDeterministic(t *testing.T) {
	edges := sampleEdges(5)
	cfg := stream.Config{WarmupFraction: 0.5, BatchSize: 120, AddFraction: 0.6, NumBatches: 2, Seed: 9}
	a := stream.Build(edges, 500, cfg)
	b := stream.Build(edges, 500, cfg)
	if len(a.Batches) != len(b.Batches) {
		t.Fatal("nondeterministic batch count")
	}
	for i := range a.Batches {
		if len(a.Batches[i]) != len(b.Batches[i]) {
			t.Fatalf("batch %d size differs", i)
		}
		for j := range a.Batches[i] {
			if a.Batches[i][j] != b.Batches[i][j] {
				t.Fatalf("batch %d update %d differs", i, j)
			}
		}
	}
}

func TestBuildUnbounded(t *testing.T) {
	edges := sampleEdges(7)
	w := stream.Build(edges, 500, stream.Config{WarmupFraction: 0.9, BatchSize: 50, AddFraction: 1.0, NumBatches: 0, Seed: 3})
	// All remaining additions must be streamed in eventually.
	total := 0
	for _, b := range w.Batches {
		for _, u := range b {
			if !u.Delete {
				total++
			}
		}
	}
	if want := len(edges) - len(w.Warmup); total != want {
		t.Fatalf("streamed %d additions, want %d", total, want)
	}
}
