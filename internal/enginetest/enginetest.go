// Package enginetest provides the shared correctness harness used by the
// engine, core, and accel test suites: it constructs a warm streaming
// case (warmup graph at its fixpoint plus one applied update batch) and
// checks that a System's incremental result equals the full-recompute
// oracle on the post-batch snapshot.
package enginetest

import (
	"fmt"
	"math/rand"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/stream"
)

// Case is one prepared incremental step: OldG at its converged Warm
// states, and Res describing the batch that produced NewG.
type Case struct {
	Algo algo.Algorithm
	OldG *graph.Snapshot
	NewG *graph.Snapshot
	Warm []float64
	Res  graph.ApplyResult
	// Batch is the raw update batch (for engines that want it).
	Batch []graph.Update
}

// Config controls case generation.
type Config struct {
	Vertices  int
	Degree    int
	BatchSize int
	// AddFraction of the batch that are additions (rest deletions).
	AddFraction float64
	Seed        int64
	// Kind selects the generator: "rmat" (default), "ws", "er".
	Kind string
}

// DefaultConfig returns a small but non-trivial case shape.
func DefaultConfig(seed int64) Config {
	return Config{Vertices: 2000, Degree: 6, BatchSize: 200, AddFraction: 0.7, Seed: seed}
}

// NewAlgorithm builds one of the four paper benchmarks by name for a
// graph of n vertices, with deterministic parameters derived from seed.
func NewAlgorithm(name string, n int, seed int64) (algo.Algorithm, error) {
	switch name {
	case "sssp":
		// Root at a low ID so the warmup graph usually reaches much of
		// the graph.
		return algo.NewSSSP(0), nil
	case "cc":
		return algo.NewCC(), nil
	case "bfs":
		return algo.NewBFS(0), nil
	case "sswp":
		return algo.NewSSWP(0), nil
	case "pagerank":
		return algo.NewPageRank(), nil
	case "adsorption":
		return algo.NewAdsorption(n, seed), nil
	default:
		return nil, fmt.Errorf("enginetest: unknown algorithm %q", name)
	}
}

// Make builds a Case for the named algorithm.
func Make(algoName string, cfg Config) (*Case, error) {
	var edges []graph.Edge
	switch cfg.Kind {
	case "ws":
		edges = gen.WattsStrogatz(gen.WattsStrogatzConfig{
			NumVertices: cfg.Vertices, K: cfg.Degree, Beta: 0.1, Seed: cfg.Seed, MaxWeight: 16,
		})
	case "er":
		edges = gen.ErdosRenyi(gen.ErdosRenyiConfig{
			NumVertices: cfg.Vertices, NumEdges: cfg.Vertices * cfg.Degree, Seed: cfg.Seed, MaxWeight: 16,
		})
	default:
		edges = gen.RMAT(gen.RMATConfig{
			NumVertices: cfg.Vertices, NumEdges: cfg.Vertices * cfg.Degree,
			A: 0.57, B: 0.19, C: 0.19, Seed: cfg.Seed, MaxWeight: 16,
		})
	}
	w := stream.Build(edges, cfg.Vertices, stream.Config{
		WarmupFraction: 0.5,
		BatchSize:      cfg.BatchSize,
		AddFraction:    cfg.AddFraction,
		NumBatches:     1,
		Seed:           cfg.Seed + 1,
	})
	if len(w.Batches) == 0 {
		return nil, fmt.Errorf("enginetest: workload produced no batches")
	}
	b := w.WarmupBuilder()
	oldG := b.Snapshot()
	a, err := NewAlgorithm(algoName, cfg.Vertices, cfg.Seed)
	if err != nil {
		return nil, err
	}
	warm := algo.Reference(a, oldG)
	res := b.Apply(w.Batches[0])
	newG := b.Snapshot()
	return &Case{Algo: a, OldG: oldG, NewG: newG, Warm: warm, Res: res, Batch: w.Batches[0]}, nil
}

// NewRuntime builds an engine runtime for the case.
func (c *Case) NewRuntime(opt engine.Options) *engine.Runtime {
	return engine.NewRuntime(c.Algo, c.OldG, c.NewG, c.Warm, opt)
}

// Tolerance returns the state-comparison tolerance for the case's
// algorithm family: accumulative delta propagation truncates below
// epsilon, and truncation errors accumulate along paths.
func (c *Case) Tolerance() float64 {
	if c.Algo.Kind() == algo.Accumulative {
		return 1e-4
	}
	return 1e-9
}

// Verify checks sys's states against the oracle on the post-batch
// snapshot and returns a descriptive error on the first mismatch.
func (c *Case) Verify(sys engine.System) error {
	want := algo.Reference(c.Algo, c.NewG)
	got := sys.Runtime().S
	if i := algo.StatesEqual(got, want, c.Tolerance()); i >= 0 {
		return fmt.Errorf("%s/%s: state mismatch at vertex %d: got %v, want %v",
			sys.Name(), c.Algo.Name(), i, got[i], want[i])
	}
	return nil
}

// RandomBatch builds an arbitrary valid batch against builder state b:
// nAdd random new edges and nDel deletions of existing edges. Used by
// property tests that want batch shapes the stream builder never emits
// (e.g. delete-only, duplicate-heavy).
func RandomBatch(b *graph.Builder, nAdd, nDel int, seed int64) []graph.Update {
	rng := rand.New(rand.NewSource(seed))
	var batch []graph.Update
	n := b.NumVertices()
	for i := 0; i < nAdd; i++ {
		src := graph.VertexID(rng.Intn(n))
		dst := graph.VertexID(rng.Intn(n))
		if src == dst {
			continue
		}
		batch = append(batch, graph.Update{Edge: graph.Edge{Src: src, Dst: dst, Weight: float32(1 + rng.Intn(16))}})
	}
	// Deletions: sample random existing edges by walking random sources.
	for i := 0; i < nDel; i++ {
		src := graph.VertexID(rng.Intn(n))
		deg := b.OutDegree(src)
		if deg == 0 {
			continue
		}
		// Materialise via snapshot-free probing: pick a random dst by
		// scanning — acceptable at test scale.
		snap := b.SnapshotWithoutCSC()
		ns := snap.OutNeighbors(src)
		if len(ns) == 0 {
			continue
		}
		dst := ns[rng.Intn(len(ns))]
		batch = append(batch, graph.Update{Edge: graph.Edge{Src: src, Dst: dst}, Delete: true})
	}
	return batch
}
