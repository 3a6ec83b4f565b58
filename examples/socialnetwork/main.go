// Social-network community monitoring: track connected components of a
// friendship graph as friendships form and dissolve, streaming batch by
// batch, and report component merges and splits after every batch; the
// final labels must equal a full recomputation's (exit 1 otherwise).
//
// Friendships are symmetric, so each logical friendship becomes two
// directed edges and the CC labels are weakly-connected components.
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/core"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
)

const members = 20_000

func main() {
	// A clustered friendship graph: isolated small-world communities of
	// 100 members each; the stream's new friendships gradually stitch
	// them together, so the component count actually moves.
	const communitySize = 100
	var base []graph.Edge
	for start := 0; start < members; start += communitySize {
		comm := gen.WattsStrogatz(gen.WattsStrogatzConfig{
			NumVertices: communitySize, K: 3, Beta: 0.05,
			Seed: int64(start), MaxWeight: 1,
		})
		for _, e := range comm {
			base = append(base, graph.Edge{
				Src:    e.Src + graph.VertexID(start),
				Dst:    e.Dst + graph.VertexID(start),
				Weight: 1,
			})
		}
	}
	st := graph.NewStoreFromEdges(members, base)
	oldG := st.Seal()

	cc := algo.NewCC()
	states := algo.Reference(cc, oldG)
	fmt.Printf("initial network: %d members, %d friendship edges, %d communities\n",
		members, oldG.NumEdges(), countComponents(states))

	rng := rand.New(rand.NewSource(42))
	for day := 1; day <= 5; day++ {
		// Each "day", some friendships form and some dissolve —
		// symmetric pairs of directed edges.
		var batch []graph.Update
		for i := 0; i < 300; i++ {
			u := graph.VertexID(rng.Intn(members))
			v := graph.VertexID(rng.Intn(members))
			if u == v {
				continue
			}
			batch = append(batch,
				graph.Update{Edge: graph.Edge{Src: u, Dst: v, Weight: 1}},
				graph.Update{Edge: graph.Edge{Src: v, Dst: u, Weight: 1}},
			)
		}
		snap := st.Seal()
		for i := 0; i < 100; i++ {
			u := graph.VertexID(rng.Intn(members))
			ns := snap.OutNeighbors(u)
			if len(ns) == 0 {
				continue
			}
			v := ns[rng.Intn(len(ns))]
			batch = append(batch,
				graph.Update{Edge: graph.Edge{Src: u, Dst: v}, Delete: true},
				graph.Update{Edge: graph.Edge{Src: v, Dst: u}, Delete: true},
			)
		}

		res := st.Apply(batch)
		newG := st.Seal()

		// Incremental component repair with the topology-driven engine
		// (native mode: no architectural simulation, just the result).
		rt := engine.NewRuntime(cc, oldG, newG, states, engine.Options{Cores: 8})
		td := core.New(core.DefaultConfig(), rt)
		td.Process(res)
		states = rt.S
		oldG = newG

		fmt.Printf("day %d: +%d -%d friendships → %d communities (largest %d members)\n",
			day, res.Added, res.Deleted, countComponents(states), largestComponent(states))
	}

	// Component labels are exact minima, so the incremental result must
	// equal a fresh computation on the final graph exactly.
	want := algo.Reference(cc, oldG)
	if i := algo.StatesEqual(states, want, 0); i >= 0 {
		log.Fatalf("label mismatch at member %d: incremental %v, recomputed %v", i, states[i], want[i])
	}
	fmt.Println("final communities verified against full recomputation ✓")
}

// countComponents counts distinct labels.
func countComponents(states []float64) int {
	seen := make(map[float64]struct{}, 256)
	for _, s := range states {
		seen[s] = struct{}{}
	}
	return len(seen)
}

// largestComponent returns the size of the biggest community.
func largestComponent(states []float64) int {
	counts := make(map[float64]int, 256)
	best := 0
	for _, s := range states {
		counts[s]++
		if counts[s] > best {
			best = counts[s]
		}
	}
	return best
}
