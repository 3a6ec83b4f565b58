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
			st := graph.NewStoreFromEdges(w.NumVertices, w.Warmup)
			oldG := st.Seal()
			a, err := enginetest.NewAlgorithm(algoName, 3000, 3)
			if err != nil {
				t.Fatal(err)
			}
			states := algo.Reference(a, oldG)
			for i, batch := range w.Batches {
				res := st.Apply(batch)
				newG := st.Seal()
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

// shapeCase is TestRandomBatchShapes' input: an 800-vertex ER warm-up
// graph and a RandomBatch of 120 updates, addBias%120 of them adds.
func shapeCase(seed int64, addBias uint8) (*graph.Store, []graph.Update) {
	edges := gen.ErdosRenyi(gen.ErdosRenyiConfig{
		NumVertices: 800, NumEdges: 4000, Seed: seed, MaxWeight: 8,
	})
	st := graph.NewStoreFromEdges(800, edges)
	nAdd := int(addBias) % 120
	return st, enginetest.RandomBatch(st, nAdd, 120-nAdd, seed+1)
}

// TestRandomBatchShapes is the main property test: arbitrary valid
// batches (delete-only, duplicate-heavy, self-loop-free random adds) must
// leave every engine at the oracle fixpoint. The pinned input is the one
// a time-seeded run once drew: its batch adds 152→266 and then deletes
// it, and ApplyResult used to keep the add (SSSP state 19 for a vertex
// the oracle says is unreachable). The test first checks the pinned seed
// still draws that add and its delete, so a change to the draw order
// cannot quietly turn the regression input into a harmless batch. The
// random draws are seeded from a logged value, so any failure names the
// input to pin next.
func TestRandomBatchShapes(t *testing.T) {
	f := func(seed int64, addBias uint8) bool {
		st, batch := shapeCase(seed, addBias)
		oldG := st.Seal()
		a := algo.NewSSSP(0)
		warm := algo.Reference(a, oldG)
		res := st.Apply(batch)
		newG := st.Seal()
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
	const pinSeed, pinBias = 2035051588195250850, 0x40
	_, pinned := shapeCase(pinSeed, pinBias)
	pinnedEdge := func(i int, del bool) bool {
		return i < len(pinned) && pinned[i].Delete == del &&
			pinned[i].Edge.Src == 152 && pinned[i].Edge.Dst == 266
	}
	if !pinnedEdge(31, false) || !pinnedEdge(82, true) {
		t.Fatal("pinned input no longer draws add 152→266 at index 31 and its delete at index 82")
	}
	if !f(pinSeed, pinBias) {
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
	st := graph.NewStore(4)
	st.AddEdge(0, 1, 1)
	st.AddEdge(1, 2, 1)
	oldG := st.Seal()
	a := algo.NewSSSP(0)
	warm := algo.Reference(a, oldG)
	res := st.Apply([]graph.Update{
		{Edge: graph.Edge{Src: 2, Dst: 7, Weight: 3}}, // grows to 8 vertices
		{Edge: graph.Edge{Src: 7, Dst: 5, Weight: 1}},
	})
	newG := st.Seal()
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
	st := graph.NewStore(3)
	st.AddEdge(0, 1, 5)
	st.AddEdge(1, 2, 5)
	oldG := st.Seal()
	a := algo.NewSSSP(0)
	warm := algo.Reference(a, oldG)
	res := st.Apply([]graph.Update{{Edge: graph.Edge{Src: 0, Dst: 2, Weight: 3}}})
	newG := st.Seal()
	rt := engine.NewRuntime(a, oldG, newG, warm, engine.Options{})
	engine.NewBaseline(engine.LigraO(), rt).Process(res)
	fmt.Println(rt.S[2])
	// Output: 3
}
