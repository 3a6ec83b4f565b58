// Package tdgraph's root benchmarks: one checkpoint save, and a
// member's cold start and checkpoint restore, which the check CI job
// runs with -benchmem. The paper's tables and figures are `tdgraph-bench
// -exp <id>` runs; `make figures` checks every simulated one at -scale
// 0.06 against its golden.
package tdgraph_test

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/stream"
)

// BenchmarkCheckpointSave cuts one checkpoint generation of a native
// session shaped like benchmark/'s g-big after warm-up (262K vertices,
// ≈1.05M R-MAT edges) — temp file, fsync, rename and all. B/op is the
// number to watch: after an untimed first save has sized the session's
// file buffer and the store's row scratch, a save streams from the store
// into that buffer and allocates only the temp file's bookkeeping, a few
// KB whatever the graph's size (the `check` CI job prints it).
func BenchmarkCheckpointSave(b *testing.B) {
	const nv = 1 << 18
	edges := gen.RMAT(gen.RMATConfig{NumVertices: nv, NumEdges: 1 << 20, A: 0.57, B: 0.19, C: 0.19, Seed: 1, MaxWeight: 64})
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ck := tdgraph.NewCheckpointer(filepath.Join(b.TempDir(), "ckpt.tds"))
	meta := make([]byte, 8)
	if err := ck.SaveWithMeta(s, meta); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ck.SaveWithMeta(s, meta); err != nil {
			b.Fatal(err)
		}
	}
}

// coldStart is the 1/16-scale g-big warm-up that internal/graph's
// BenchmarkNewStoreFromEdges loads: 16,384 vertices and half of a
// 131,072-edge R-MAT graph.
var coldStart = sync.OnceValue(func() *stream.Workload {
	const nv, ne = 16_384, 131_072
	edges := gen.RMAT(gen.RMATConfig{NumVertices: nv, NumEdges: ne, A: 0.57, B: 0.19, C: 0.19, Seed: 1, MaxWeight: 64})
	return stream.Build(edges, nv, stream.Config{WarmupFraction: 0.5, BatchSize: 512, AddFraction: 0.5, NumBatches: 128, Seed: 1})
})

// BenchmarkNewSession is a member's cold start: one op builds the store
// from coldStart's warm-up and bootstraps SSSP on it.
func BenchmarkNewSession(b *testing.B) {
	w := coldStart()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices, tdgraph.SessionOptions{})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkLoadSession is a checkpoint restore of BenchmarkNewSession's
// session: one op decodes the checkpoint from memory, loads the store
// and replays the fixpoint for the parent forest.
func BenchmarkLoadSession(b *testing.B) {
	w := coldStart()
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices, tdgraph.SessionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var ckpt bytes.Buffer
	err = s.Save(&ckpt)
	s.Close()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := tdgraph.LoadSession(tdgraph.NewSSSP(0), bytes.NewReader(ckpt.Bytes()), tdgraph.SessionOptions{})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
