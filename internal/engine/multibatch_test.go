package engine_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/stream"
)

// TestMultiBatchChaining streams several batches through the baseline
// engine, carrying converged states forward, and checks the final result
// against the oracle on the final snapshot — the way tdgraph-run and the
// examples use the library.
func TestMultiBatchChaining(t *testing.T) {
	for _, algoName := range []string{"sssp", "pagerank"} {
		t.Run(algoName, func(t *testing.T) {
			edges := gen.RMAT(gen.RMATConfig{
				NumVertices: 3000, NumEdges: 15000, A: 0.57, B: 0.19, C: 0.19, Seed: 3, MaxWeight: 8,
			})
			w := stream.Build(edges, 3000, stream.Config{
				WarmupFraction: 0.5, BatchSize: 400, AddFraction: 0.6, NumBatches: 4, Seed: 3,
			})
			b := w.WarmupBuilder()
			oldG := b.Snapshot()
			a, err := enginetest.NewAlgorithm(algoName, 3000, 3)
			if err != nil {
				t.Fatal(err)
			}
			states := algo.Reference(a, oldG)
			for i, batch := range w.Batches {
				res := b.Apply(batch)
				newG := b.Snapshot()
				rt := engine.NewRuntime(a, oldG, newG, states, engine.Options{Cores: 4})
				sys := engine.NewBaseline(engine.LigraO(), rt)
				sys.Process(res)
				states = rt.S
				oldG = newG
				want := algo.Reference(a, newG)
				tol := 1e-9
				if a.Kind() == algo.Accumulative {
					// Truncation error compounds batch over batch.
					tol = 1e-3
				}
				if bad := algo.StatesEqual(states, want, tol); bad >= 0 {
					t.Fatalf("batch %d: mismatch at vertex %d: got %v want %v",
						i, bad, states[bad], want[bad])
				}
			}
		})
	}
}

// TestRandomBatchShapes is the main property test: arbitrary valid
// batches (delete-only, duplicate-heavy, self-loop-free random adds) must
// leave every engine at the oracle fixpoint. The pinned input is the one
// a time-seeded run once drew: its batch adds 152→266 and then deletes
// it, and ApplyResult used to keep the add (SSSP state 19 for a vertex
// the oracle says is unreachable). The random draws are seeded from a
// logged value, so any failure names the input to pin next.
func TestRandomBatchShapes(t *testing.T) {
	f := func(seed int64, addBias uint8) bool {
		edges := gen.ErdosRenyi(gen.ErdosRenyiConfig{
			NumVertices: 800, NumEdges: 4000, Seed: seed, MaxWeight: 8,
		})
		b := graph.NewBuilderFromEdges(800, edges)
		oldG := b.Snapshot()
		a := algo.NewSSSP(0)
		warm := algo.Reference(a, oldG)
		nAdd := int(addBias) % 120
		nDel := 120 - nAdd
		batch := enginetest.RandomBatch(b, nAdd, nDel, seed+1)
		res := b.Apply(batch)
		newG := b.Snapshot()
		rt := engine.NewRuntime(a, oldG, newG, warm, engine.Options{Cores: 4})
		sys := engine.NewBaseline(engine.LigraO(), rt)
		sys.Process(res)
		want := algo.Reference(a, newG)
		if i := algo.StatesEqual(rt.S, want, 1e-9); i >= 0 {
			t.Logf("input (%d, %#x): mismatch at %d: got %v want %v", seed, addBias, i, rt.S[i], want[i])
			return false
		}
		return true
	}
	if !f(2035051588195250850, 0x40) {
		t.Fatal("pinned input (add 152→266 then delete it) diverged from the oracle")
	}
	seed := time.Now().UnixNano()
	t.Logf("testing/quick seeded with %d", seed)
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Fatalf("quick seed %d: %v", seed, err)
	}
}

// TestVertexGrowth: a batch referencing vertices beyond the old
// snapshot's range must grow the graph and still converge correctly.
func TestVertexGrowth(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	oldG := b.Snapshot()
	a := algo.NewSSSP(0)
	warm := algo.Reference(a, oldG)
	res := b.Apply([]graph.Update{
		{Edge: graph.Edge{Src: 2, Dst: 7, Weight: 3}}, // grows to 8 vertices
		{Edge: graph.Edge{Src: 7, Dst: 5, Weight: 1}},
	})
	newG := b.Snapshot()
	rt := engine.NewRuntime(a, oldG, newG, warm, engine.Options{Cores: 2})
	sys := engine.NewBaseline(engine.LigraO(), rt)
	sys.Process(res)
	want := algo.Reference(a, newG)
	if i := algo.StatesEqual(rt.S, want, 1e-9); i >= 0 {
		t.Fatalf("mismatch at %d: got %v want %v", i, rt.S[i], want[i])
	}
	if rt.S[7] != 5 { // 0→1→2 (2) + 3 = 5
		t.Fatalf("dist to new vertex 7 = %v, want 5", rt.S[7])
	}
}

// TestAllEnginesAgree runs every software baseline on the same case and
// requires identical final states (they differ in cost, not semantics).
func TestAllEnginesAgree(t *testing.T) {
	c, err := enginetest.Make("cc", enginetest.DefaultConfig(17))
	if err != nil {
		t.Fatal(err)
	}
	var ref []float64
	for i, mk := range allParams {
		rt := c.NewRuntime(engine.Options{Cores: 4})
		sys := engine.NewBaseline(mk(), rt)
		sys.Process(c.Res)
		if i == 0 {
			ref = rt.S
			continue
		}
		if j := algo.StatesEqual(ref, rt.S, 0); j >= 0 {
			t.Fatalf("%s disagrees with %s at vertex %d",
				mk().Name, engine.LigraO().Name, j)
		}
	}
}

// TestRepairIdempotentActivation: re-activating an already active vertex
// must not duplicate it in the frontier.
func TestRepairIdempotentActivation(t *testing.T) {
	c, err := enginetest.Make("sssp", enginetest.DefaultConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	rt := c.NewRuntime(engine.Options{Cores: 2})
	rt.Repair(c.Res)
	seen := map[graph.VertexID]bool{}
	for ci := 0; ci < 2; ci++ {
		for _, v := range rt.TakeActive(ci) {
			if seen[v] {
				t.Fatalf("vertex %d activated twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("repair activated nothing")
	}
}

// TestStreamScenarios exercises named corner batches.
func TestStreamScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		add  float64
	}{
		{"add-only", 1.0},
		{"delete-only", 0.0},
		{"balanced", 0.5},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg := enginetest.DefaultConfig(29)
			cfg.AddFraction = sc.add
			c, err := enginetest.Make("sssp", cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys := engine.NewBaseline(engine.LigraO(), c.NewRuntime(engine.Options{}))
			sys.Process(c.Res)
			if err := c.Verify(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func ExampleBaseline() {
	// Build a tiny graph, stream one update, and print the repaired
	// shortest path.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 5)
	oldG := b.Snapshot()
	a := algo.NewSSSP(0)
	warm := algo.Reference(a, oldG)
	res := b.Apply([]graph.Update{{Edge: graph.Edge{Src: 0, Dst: 2, Weight: 3}}})
	newG := b.Snapshot()
	rt := engine.NewRuntime(a, oldG, newG, warm, engine.Options{})
	engine.NewBaseline(engine.LigraO(), rt).Process(res)
	fmt.Println(rt.S[2])
	// Output: 3
}
