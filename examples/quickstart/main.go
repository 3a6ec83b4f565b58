// Quickstart: the public tdgraph API. Build a streaming graph session,
// apply update batches, and read incrementally maintained shortest paths
// — then run the same batch on the architectural simulator to see what
// the TDGraph hardware engine would do with it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/core"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

func main() {
	// A synthetic power-law graph stands in for a real edge list (use
	// tdgraph.LoadSNAPFile to read SNAP data instead).
	edges := gen.RMAT(gen.RMATConfig{
		NumVertices: 10_000, NumEdges: 60_000,
		A: 0.57, B: 0.19, C: 0.19, Seed: 1, MaxWeight: 16,
	})

	// 1. A session converges SSSP on the initial graph and keeps it
	// converged across update batches.
	session, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, 10_000, tdgraph.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer session.Close()
	fmt.Printf("initial graph: %d vertices, %d edges; dist(0→100) = %v\n",
		session.NumVertices(), session.NumEdges(), session.State(100))

	// 2. Stream a batch of edge additions and deletions.
	batch := []tdgraph.Update{
		{Edge: tdgraph.Edge{Src: 0, Dst: 9_999, Weight: 2}},
		{Edge: tdgraph.Edge{Src: 9_999, Dst: 100, Weight: 1}},
	}
	res, err := session.ApplyBatch(batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch applied: +%d -%d edges, %d affected vertices\n",
		res.Added, res.Deleted, len(res.Affected))
	fmt.Printf("dist(0→9999) = %v, dist(0→100) = %v (shortcut found)\n",
		session.State(9_999), session.State(100))

	// 3. Verify against a full recomputation.
	before := session.State(100)
	session.Recompute()
	if session.State(100) != before {
		log.Fatal("incremental result differs from recompute")
	}
	fmt.Println("incremental result matches full recomputation ✓")

	// 4. The same batch on the simulated 64-core machine with the
	// TDGraph hardware engine attached — this is what the benchmark
	// harness measures. The simulator sits below the public API: the
	// engine repairs the converged states between the pre- and
	// post-batch snapshots while the machine counts the cycles.
	st := graph.NewStoreFromEdges(10_000, edges)
	oldG := st.Seal()
	res = st.Apply(batch)
	m, col := sim.New(sim.ScaledConfig()), stats.NewCollector()
	sssp := algo.NewSSSP(0)
	rt := engine.NewRuntime(sssp, oldG, st.Seal(), algo.Reference(sssp, oldG), engine.Options{
		Cores: 64, Collector: col, Machine: m,
		Layout: engine.LayoutOptions{TDGraph: true, Alpha: 0.005},
	})
	core.New(core.DefaultConfig(), rt).Process(res)
	fmt.Printf("simulated TDGraph-H: %.0f cycles, %d state update operations\n",
		m.Time(), col.Get(stats.CtrStateUpdates))
}
