package graph_test

import (
	"runtime"
	"sync"
	"testing"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/stream"
)

// insertStream is the serving benchmark's bulk-insert input at 1/16
// scale: a g-dense-shaped R-MAT graph (16,384 vertices, 262,144 edges,
// the same a/b/c skew and weights), a quarter loaded up front and the
// rest streamed as 96 batches of 2,048 inserts.
var insertStream = sync.OnceValue(func() *stream.Workload {
	const nv, ne = 16_384, 262_144
	edges := gen.RMAT(gen.RMATConfig{NumVertices: nv, NumEdges: ne, A: 0.57, B: 0.19, C: 0.19, Seed: 1, MaxWeight: 64})
	return stream.Build(edges, nv, stream.Config{WarmupFraction: 0.25, BatchSize: 2048, AddFraction: 1, Seed: 1})
})

// replayInserts applies every batch of w to st and returns the number of
// edges inserted.
func replayInserts(st *graph.Store, w *stream.Workload) (added int) {
	for _, b := range w.Batches {
		added += st.Apply(b).Added
	}
	return added
}

// BenchmarkStoreInsertStream replays insertStream into a store built
// from its warm-up; one op is the whole stream, and B/op is the store's
// growth under it.
func BenchmarkStoreInsertStream(b *testing.B) {
	w := insertStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := graph.NewStoreFromEdges(w.NumVertices, w.Warmup)
		b.StartTimer()
		replayInserts(st, w)
	}
}

// storeBytesPerInsert is the allocation budget of one streamed insert:
// 1.2 × the 60.8 B measured on the three-tier store (the two-tier store
// it replaced measured 101.0 B), so a growth regression fails here and
// not only in the benchmark.
const storeBytesPerInsert = 1.2 * 60.8

// TestStoreInsertStreamAllocBudget holds insertStream's store growth to
// storeBytesPerInsert bytes per inserted edge, out- and in-adjacency
// together.
func TestStoreInsertStreamAllocBudget(t *testing.T) {
	w := insertStream()
	st := graph.NewStoreFromEdges(w.NumVertices, w.Warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	added := replayInserts(st, w)
	runtime.ReadMemStats(&after)
	perInsert := float64(after.TotalAlloc-before.TotalAlloc) / float64(added)
	if perInsert > storeBytesPerInsert {
		t.Fatalf("%d streamed inserts allocated %.1f B each, budget %.1f", added, perInsert, storeBytesPerInsert)
	}
	t.Logf("%d streamed inserts, %.1f B allocated each (budget %.1f)", added, perInsert, storeBytesPerInsert)
}
