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
// refer to an edge that is live at the time it is applied, so builders
// never skip (property over seeds).
func TestBuildDeletesAreLive(t *testing.T) {
	f := func(seed int64) bool {
		edges := sampleEdges(seed)
		w := stream.Build(edges, 500, stream.Config{
			WarmupFraction: 0.5, BatchSize: 150, AddFraction: 0.4, NumBatches: 3, Seed: seed,
		})
		b := w.WarmupBuilder()
		for _, batch := range w.Batches {
			res := b.Apply(batch)
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

func TestMergeBatchesPreservesOrder(t *testing.T) {
	a := []graph.Update{
		{Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}},
		{Edge: graph.Edge{Src: 2, Dst: 3, Weight: 1}, Delete: true},
	}
	b := []graph.Update{
		{Edge: graph.Edge{Src: 3, Dst: 4, Weight: 2}},
	}
	m := stream.MergeBatches(a, b)
	if len(m) != 3 || m[0] != a[0] || m[1] != a[1] || m[2] != b[0] {
		t.Fatalf("merge reordered or lost updates: %v", m)
	}
	// The merge must be a fresh slice: appending to it cannot clobber a.
	_ = append(m, graph.Update{})
	if a[1].Edge.Src != 2 {
		t.Fatal("merge aliased its input")
	}
}

func TestCoalesceRespectsCap(t *testing.T) {
	mk := func(n int) []graph.Update {
		b := make([]graph.Update, n)
		for i := range b {
			b[i] = graph.Update{Edge: graph.Edge{Src: uint32(i), Dst: uint32(i + 1), Weight: 1}}
		}
		return b
	}
	batches := [][]graph.Update{mk(3), mk(2), mk(4), mk(1), mk(1)}

	// Cap 5: [3+2] [4+1] [1] — greedy adjacent merges, order preserved.
	got := stream.Coalesce(batches, 5)
	want := []int{5, 5, 1}
	if len(got) != len(want) {
		t.Fatalf("coalesced into %d batches, want %d", len(got), len(want))
	}
	total := 0
	for i, b := range got {
		if len(b) != want[i] {
			t.Fatalf("batch %d has %d updates, want %d", i, len(b), want[i])
		}
		if len(b) > 5 {
			t.Fatalf("batch %d exceeds the cap", i)
		}
		total += len(b)
	}
	if total != 11 {
		t.Fatalf("updates lost: %d, want 11", total)
	}

	// Unlimited: everything collapses into one batch.
	if all := stream.Coalesce(batches, 0); len(all) != 1 || len(all[0]) != 11 {
		t.Fatalf("unbounded coalesce = %d batches", len(all))
	}

	// Cap smaller than any batch: nothing merges.
	if none := stream.Coalesce(batches, 1); len(none) != len(batches) {
		t.Fatalf("cap-1 coalesce merged: %d batches", len(none))
	}
}
