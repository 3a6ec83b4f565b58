package native

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/graph"
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
