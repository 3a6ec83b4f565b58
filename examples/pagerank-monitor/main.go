// PageRank trending monitor: maintain incremental PageRank over a
// citation/mention graph as new links stream in, reporting the top movers
// after each batch and the hot vertices the VSCU would coalesce, then
// check the final ranks against a full recomputation (exit 1 on a
// mismatch).
//
//	go run ./examples/pagerank-monitor
package main

import (
	"fmt"
	"log"
	"sort"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/core"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
)

const pages = 30_000

func main() {
	// A power-law mention graph; the stream plays the remaining half of
	// the crawl in as link additions mixed with link-rot deletions.
	edges := gen.RMAT(gen.RMATConfig{
		NumVertices: pages, NumEdges: pages * 8,
		A: 0.57, B: 0.19, C: 0.19, Seed: 11, MaxWeight: 1,
	})
	w := stream.Build(edges, pages, stream.Config{
		WarmupFraction: 0.5, BatchSize: 5_000, AddFraction: 0.8, NumBatches: 3, Seed: 11,
	})
	st := graph.NewStoreFromEdges(w.NumVertices, w.Warmup)
	oldG := st.Seal()

	pr := algo.NewPageRank()
	ranks := algo.Reference(pr, oldG)
	fmt.Printf("corpus: %d pages, %d links; initial top pages: %v\n",
		pages, oldG.NumEdges(), topK(ranks, 3))

	for i, batch := range w.Batches {
		prev := make([]float64, len(ranks))
		copy(prev, ranks)

		res := st.Apply(batch)
		newG := st.Seal()

		col := stats.NewCollector()
		rt := engine.NewRuntime(pr, oldG, newG, ranks, engine.Options{Cores: 8, Collector: col})
		td := core.New(core.DefaultConfig(), rt)
		td.Process(res)
		ranks = rt.S
		oldG = newG

		fmt.Printf("\nbatch %d: +%d links, -%d links (%d update ops, %d rounds)\n",
			i+1, res.Added, res.Deleted,
			col.Get(stats.CtrStateUpdates), col.Get(stats.CtrIterations))
		fmt.Printf("  top pages now: %v\n", topK(ranks, 3))
		fmt.Printf("  biggest movers: %v\n", movers(prev, ranks, 3))
		if hot := col.Get(stats.CtrHotHits); hot > 0 {
			fmt.Printf("  VSCU served %d hot-state accesses from Coalesced_States\n", hot)
		}
	}

	// Delta propagation truncates below epsilon, so the incremental ranks
	// match a fresh computation to the accumulative tolerance, not bit
	// for bit.
	want := algo.Reference(pr, oldG)
	if i := algo.StatesEqual(ranks, want, 1e-4); i >= 0 {
		log.Fatalf("rank mismatch at page %d: incremental %v, recomputed %v", i, ranks[i], want[i])
	}
	fmt.Println("\nfinal ranks verified against full recomputation ✓")
}

// topK returns the k highest-ranked page IDs.
func topK(ranks []float64, k int) []graph.VertexID {
	idx := make([]graph.VertexID, len(ranks))
	for i := range idx {
		idx[i] = graph.VertexID(i)
	}
	sort.Slice(idx, func(a, b int) bool { return ranks[idx[a]] > ranks[idx[b]] })
	return idx[:k]
}

// movers returns the k pages whose rank changed the most.
func movers(before, after []float64, k int) []graph.VertexID {
	idx := make([]graph.VertexID, len(after))
	for i := range idx {
		idx[i] = graph.VertexID(i)
	}
	delta := func(v graph.VertexID) float64 {
		d := after[v] - before[v]
		if d < 0 {
			return -d
		}
		return d
	}
	sort.Slice(idx, func(a, b int) bool { return delta(idx[a]) > delta(idx[b]) })
	return idx[:k]
}
