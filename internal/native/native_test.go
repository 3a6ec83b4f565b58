package native

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// makeCase builds the named enginetest case, failing t if it cannot.
func makeCase(t *testing.T, algoName string, cfg enginetest.Config) *enginetest.Case {
	t.Helper()
	c, err := enginetest.Make(algoName, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// applyCase runs the case's batch through a fresh session, returning its states.
func applyCase(c *enginetest.Case, apply func(*Session, []graph.Update) graph.ApplyResult, workers int) []float64 {
	s := NewSession(c.Algo, graph.NewStoreFromSnapshot(c.OldG), Config{Workers: workers})
	defer s.Close()
	apply(s, c.Batch)
	return s.StatesCopy()
}

// TestNativeEnginesMatchOracle checks both propagation methods against
// the full-recompute oracle, bit for bit, across monotonic algorithms,
// seeds and worker counts (1 worker exercises the degenerate serial
// path, many workers the concurrent CAS paths).
func TestNativeEnginesMatchOracle(t *testing.T) {
	for _, algoName := range []string{"sssp", "cc"} {
		for _, workers := range []int{1, 2, 4, 8, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/w%d/seed%d", algoName, workers, seed), func(t *testing.T) {
					c := makeCase(t, algoName, enginetest.DefaultConfig(seed))
					want := algo.Reference(c.Algo, c.NewG)
					for _, o := range Orders {
						bitsEqual(t, o.Name, applyCase(c, o.Apply, workers), want)
					}
				})
			}
		}
	}
}

// TestNativeDeleteHeavy stresses the deletion repair under both methods.
func TestNativeDeleteHeavy(t *testing.T) {
	cfg := enginetest.DefaultConfig(99)
	cfg.AddFraction = 0.1
	c := makeCase(t, "sssp", cfg)
	want := algo.Reference(c.Algo, c.NewG)
	for _, o := range Orders {
		bitsEqual(t, o.Name, applyCase(c, o.Apply, 8), want)
	}
}

// TestNativeRepeatedRuns guards against data races producing wrong final
// values: repeated concurrent runs must all match the oracle (-race in CI).
func TestNativeRepeatedRuns(t *testing.T) {
	c := makeCase(t, "cc", enginetest.DefaultConfig(7))
	want := algo.Reference(c.Algo, c.NewG)
	for i := 0; i < 10; i++ {
		for _, o := range Orders {
			bitsEqual(t, fmt.Sprintf("%s, iteration %d", o.Name, i), applyCase(c, o.Apply, 8), want)
		}
	}
}

// TestNativeAccumulativeMatchesOracle streams the case's batch, then
// batches with deletions that grow the vertex set, through a session of
// each accumulative algorithm, within 1e-4 of the oracle after each.
func TestNativeAccumulativeMatchesOracle(t *testing.T) {
	for _, algoName := range []string{"pagerank", "adsorption"} {
		for _, workers := range []int{1, 2, 8} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/w%d/seed%d", algoName, workers, seed), func(t *testing.T) {
					c := makeCase(t, algoName, enginetest.DefaultConfig(seed))
					s := NewSession(c.Algo, graph.NewStoreFromSnapshot(c.OldG), Config{Workers: workers})
					defer s.Close()
					rng := rand.New(rand.NewSource(seed))
					batch := c.Batch
					for i := 0; i < 4; i++ {
						s.ApplyBatch(batch)
						want := algo.Reference(c.Algo, s.Store().Seal())
						if v := algo.StatesEqual(s.StatesCopy(), want, 1e-4); v >= 0 {
							t.Fatalf("batch %d: vertex %d is %v, want %v", i, v, s.State(graph.VertexID(v)), want[v])
						}
						batch = randomStream(rng, 100, s.NumVertices()+5)
					}
				})
			}
		}
	}
}

// TestNativeAccumulativeRepeated guards against torn-float races (run
// with -race).
func TestNativeAccumulativeRepeated(t *testing.T) {
	c := makeCase(t, "pagerank", enginetest.DefaultConfig(3))
	want := algo.Reference(c.Algo, c.NewG)
	for i := 0; i < 5; i++ {
		if j := algo.StatesEqual(applyCase(c, (*Session).ApplyBatch, 8), want, 1e-4); j >= 0 {
			t.Fatalf("iteration %d: mismatch at %d", i, j)
		}
	}
}

// TestOneWorkerWorkPinned pins the exact work of one SSSP batch in each
// propagation order at one worker, where the schedule is deterministic:
// 1,024 random new edges into a 65,536-vertex R-MAT graph (8 edges per
// vertex) and into a Watts–Strogatz graph of AZ's shape (K 8, β 0.01).
// A change that moves no propagation work leaves every count exact; a
// new order or a dequeue rule that drops redundant visits moves them,
// and must say so here.
func TestOneWorkerWorkPinned(t *testing.T) {
	const nv = 1 << 16
	type work struct{ visits, edges uint64 }
	for _, g := range []struct {
		name  string
		edges []graph.Edge
		want  map[string]work // by order name
	}{
		{"rmat", gen.RMAT(gen.RMATConfig{NumVertices: nv, NumEdges: 8 * nv, A: 0.57, B: 0.19, C: 0.19, Seed: 1, MaxWeight: 16}),
			map[string]work{"Ligra-o": {285, 192}, "TDGraph-S-without": {285, 192}}},
		{"ws", gen.WattsStrogatz(gen.WattsStrogatzConfig{NumVertices: nv, K: 8, Beta: 0.01, Seed: 1, MaxWeight: 16}),
			map[string]work{"Ligra-o": {46_326, 741_813}, "TDGraph-S-without": {89_829, 1_438_289}}},
	} {
		base := graph.NewStoreFromEdges(nv, g.edges)
		rng := rand.New(rand.NewSource(2))
		batch := make([]graph.Update, 0, 1024)
		seen := map[graph.Edge]bool{}
		for len(batch) < cap(batch) {
			e := graph.Edge{Src: graph.VertexID(rng.Intn(nv)), Dst: graph.VertexID(rng.Intn(nv))}
			if e.Src == e.Dst || base.HasEdge(e.Src, e.Dst) || seen[e] {
				continue
			}
			seen[e] = true
			e.Weight = float32(1 + rng.Intn(16))
			batch = append(batch, graph.Update{Edge: e})
		}
		for _, o := range Orders {
			s := NewSession(algo.NewSSSP(0), graph.NewStoreFromEdges(nv, g.edges), Config{Workers: 1})
			o.Apply(s, batch)
			m := s.Metrics()
			s.Close()
			got := work{m.Get(stats.CtrPropagationVisits), m.Get(stats.CtrEdgesProcessed)}
			t.Logf("%s %s: %d visits, %d edges", g.name, o.Name, got.visits, got.edges)
			if got != g.want[o.Name] {
				t.Errorf("%s %s: %d visits and %d edges, want %d and %d", g.name, o.Name, got.visits, got.edges, g.want[o.Name].visits, g.want[o.Name].edges)
			}
		}
	}
}
