// Road-network re-routing: maintain shortest travel times from a depot
// over a road network while congestion closes and reopens road segments.
// A native.Session — the library's production apply path, the engine
// behind tdgraph.Session — holds the graph.Store and the converged
// routes and repairs them in place after every hour's batch on its
// parallel worker pool. The final routes must equal a full
// recomputation (exit 1 otherwise).
//
//	go run ./examples/roadnetwork
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/native"
)

const intersections = 50_000

func main() {
	// A road-like network: a grid-ish small world with few shortcuts
	// (long diameter, low degree), symmetric roads with travel-time
	// weights.
	roads := gen.WattsStrogatz(gen.WattsStrogatzConfig{
		NumVertices: intersections, K: 2, Beta: 0.01, Seed: 3, MaxWeight: 30,
	})
	st := graph.NewStoreFromEdges(intersections, roads)

	depot := graph.VertexID(0)
	sssp := algo.NewSSSP(depot)
	fmt.Print("computing initial routes from depot... ")
	start := time.Now()
	sess := native.NewSession(sssp, st, native.Config{})
	times := sess.StatesCopy()
	fmt.Printf("done in %s (%d reachable intersections)\n",
		time.Since(start).Round(time.Millisecond), reachable(times))

	rng := rand.New(rand.NewSource(99))
	closed := []graph.Edge{}
	for hour := 8; hour <= 12; hour++ {
		var batch []graph.Update
		// Congestion closes some segments, picked from the sealed,
		// sorted rows so the draws do not depend on the store's
		// insertion order...
		snap := st.Seal()
		for i := 0; i < 200; i++ {
			u := graph.VertexID(rng.Intn(intersections))
			ns := snap.OutNeighbors(u)
			ws := snap.OutWeights(u)
			if len(ns) == 0 {
				continue
			}
			j := rng.Intn(len(ns))
			e := graph.Edge{Src: u, Dst: ns[j], Weight: ws[j]}
			batch = append(batch, graph.Update{Edge: e, Delete: true})
			closed = append(closed, e)
		}
		// ...while earlier closures reopen.
		reopen := len(closed) / 2
		for _, e := range closed[:reopen] {
			batch = append(batch, graph.Update{Edge: e})
		}
		closed = closed[reopen:]

		start = time.Now()
		res := sess.ApplyBatch(batch)
		elapsed := time.Since(start)
		times = sess.StatesInto(times)

		fmt.Printf("%02d:00  closed %d, reopened %d segments → re-routed in %s (%d reachable, mean travel time %.1f)\n",
			hour, res.Deleted, res.Added, elapsed.Round(time.Microsecond),
			reachable(times), meanTime(times))
	}

	sess.Close()

	// Spot check: the incremental result matches a fresh computation.
	want := algo.Reference(sssp, st.Seal())
	if i := algo.StatesEqual(times, want, 1e-9); i >= 0 {
		log.Fatalf("route mismatch at intersection %d: incremental %v, recomputed %v", i, times[i], want[i])
	}
	fmt.Println("final routes verified against full recomputation ✓")
}

func reachable(times []float64) int {
	n := 0
	for _, t := range times {
		if !math.IsInf(t, 1) {
			n++
		}
	}
	return n
}

func meanTime(times []float64) float64 {
	var sum float64
	n := 0
	for _, t := range times {
		if !math.IsInf(t, 1) {
			sum += t
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
