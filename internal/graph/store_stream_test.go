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

// churnStream is the serving benchmark's churn input at 1/16 scale:
// g-big's R-MAT shape (16,384 vertices, 131,072 edges), half loaded up
// front, then 128 batches of 512 updates, half of them deletions.
var churnStream = sync.OnceValue(func() *stream.Workload {
	const nv, ne = 16_384, 131_072
	edges := gen.RMAT(gen.RMATConfig{NumVertices: nv, NumEdges: ne, A: 0.57, B: 0.19, C: 0.19, Seed: 1, MaxWeight: 64})
	return stream.Build(edges, nv, stream.Config{WarmupFraction: 0.5, BatchSize: 512, AddFraction: 0.5, NumBatches: 128, Seed: 1})
})

// BenchmarkStoreChurnStream replays churnStream into a store built from
// its warm-up; one op is the whole stream — the hash-delete path beside
// BenchmarkStoreInsertStream's growth.
func BenchmarkStoreChurnStream(b *testing.B) {
	w := churnStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := graph.NewStoreFromEdges(w.NumVertices, w.Warmup)
		b.StartTimer()
		replayInserts(st, w)
	}
}

// builtStore keeps BenchmarkNewStoreFromEdges's result live.
var builtStore *graph.Store

// BenchmarkNewStoreFromEdges builds a store from churnStream's warm-up,
// g-big's shape at 1/16 scale; one op is one build, and B/op is the
// store plus everything the build allocates on the way.
func BenchmarkNewStoreFromEdges(b *testing.B) {
	w := churnStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtStore = graph.NewStoreFromEdges(w.NumVertices, w.Warmup)
	}
}

// storeBytesPerInsert is the allocation budget of one streamed insert:
// 1.2 × the 32.7 B measured with an ID-only in-edge mirror (a mirror
// holding weights measured 39.6 B, 32-bit hub tables 47.9 B,
// copy-on-grow hub logs 61.2 B, the two-tier store before them
// 101.0 B), so a growth regression fails here and not only in the
// benchmark.
const storeBytesPerInsert = 1.2 * 32.7

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

// liveGrowth is how much the live heap grows while build runs: both ends
// are read after a full collection, with build's result still held.
func liveGrowth(build func() *graph.Store) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// Footprint budgets of the vertex table. An edgeless vertex costs two
// 8-byte headers and its 1-byte touch mark (a 4-byte touch epoch before
// it), on top of storeFixedBytes for the Store's own fields and whatever
// the runtime allocates around the measurement. The warm-up budget is
// 1.1 × the 501,920 live bytes measured for it with an ID-only in-edge
// mirror (a mirror holding weights held 894,032, 32-bit hub tables
// 1,071,696, copy-on-grow hub logs 1,097,856, the slab-and-pointer
// layout before the vertex table 1,883,312).
const (
	storeBytesPerEmptyVertex = 2*8 + 1
	storeFixedBytes          = 64 << 10
	storeWarmupLiveBytes     = 1.1 * 501_920
)

// TestStoreFootprintBudget holds the store's live heap (a) over a million
// edgeless vertices, which own nothing but their headers, and (b) after
// the churn and ckpt-default warm-up at 1/16 scale: g-big's R-MAT shape
// at 16,384 vertices and 131,072 edges, half of them loaded.
func TestStoreFootprintBudget(t *testing.T) {
	const empty = 1 << 20
	perEmpty := (liveGrowth(func() *graph.Store { return graph.NewStore(empty) }) - storeFixedBytes) / empty
	t.Logf("NewStore(%d): %.2f B per vertex (budget %d)", empty, perEmpty, storeBytesPerEmptyVertex)
	if perEmpty > storeBytesPerEmptyVertex {
		t.Errorf("NewStore(%d) holds %.2f B per vertex, budget %d", empty, perEmpty, storeBytesPerEmptyVertex)
	}
	const nv, ne = 16_384, 131_072
	edges := gen.RMAT(gen.RMATConfig{NumVertices: nv, NumEdges: ne, A: 0.57, B: 0.19, C: 0.19, Seed: 1, MaxWeight: 64})
	w := stream.Build(edges, nv, stream.Config{WarmupFraction: 0.5, BatchSize: 512, AddFraction: 0.5, NumBatches: 1, Seed: 1})
	var st *graph.Store
	live := liveGrowth(func() *graph.Store { st = graph.NewStoreFromEdges(nv, w.Warmup); return st })
	t.Logf("warm-up store: %.0f B live, %.1f B per vertex, %.1f B per edge (%d vertices, %d edges; budget %.0f B)",
		live, live/float64(st.NumVertices()), live/float64(st.NumEdges()), st.NumVertices(), st.NumEdges(), storeWarmupLiveBytes)
	if live > storeWarmupLiveBytes {
		t.Errorf("warm-up store holds %.0f B live, budget %.0f", live, storeWarmupLiveBytes)
	}
}
