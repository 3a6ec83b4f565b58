// Package enginetest provides the shared correctness harness used by the
// engine, core, and accel test suites: it constructs a warm streaming
// case (warmup graph at its fixpoint plus one applied update batch) and
// checks that a System's incremental result equals the full-recompute
// oracle on the post-batch snapshot. Its Runner streams whole workloads
// through the functional engines, the reference the native Session's
// suites compare against.
package enginetest

import (
	"fmt"
	"math/rand"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/core"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/stream"
)

// Case is one prepared incremental step: OldG at its converged Warm
// states, and Res describing the batch that produced NewG. It is also
// the case every simulated bench cell measures (bench.Prepare).
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
	st := graph.NewStoreFromEdges(w.NumVertices, w.Warmup)
	oldG := st.Seal()
	a, err := NewAlgorithm(algoName, cfg.Vertices, cfg.Seed)
	if err != nil {
		return nil, err
	}
	warm := algo.Reference(a, oldG)
	res := st.Apply(w.Batches[0])
	newG := st.Seal()
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

// Runner streams batches through a graph.Store and a functional engine
// without the simulator: after each batch G is the store's sealed
// snapshot and S the repaired states. It starts no goroutines, so
// suites that count the native engine's workers can run it.
type Runner struct {
	Algo algo.Algorithm
	G    *graph.Snapshot
	S    []float64

	st     *graph.Store
	system func(*engine.Runtime) engine.System
}

// TopologyDriven is the paper's topology-driven engine, TDGraph.
func TopologyDriven(rt *engine.Runtime) engine.System { return core.New(core.DefaultConfig(), rt) }

// Baseline is the frontier-synchronous Ligra-o engine.
func Baseline(rt *engine.Runtime) engine.System { return engine.NewBaseline(engine.LigraO(), rt) }

// NewRunner converges a from scratch on the warm-up edges over nv
// vertices; system repairs every later batch.
func NewRunner(a algo.Algorithm, warmup []graph.Edge, nv int, system func(*engine.Runtime) engine.System) *Runner {
	st := graph.NewStoreFromEdges(nv, warmup)
	g := st.Seal()
	return &Runner{Algo: a, G: g, S: algo.Reference(a, g), st: st, system: system}
}

// Apply applies one batch and repairs the states incrementally. The
// result's slices are the store's and are reused by the next Apply.
func (r *Runner) Apply(batch []graph.Update) graph.ApplyResult {
	res := r.st.Apply(batch)
	newG := r.st.Seal()
	rt := engine.NewRuntime(r.Algo, r.G, newG, r.S, engine.Options{Cores: 8})
	r.system(rt).Process(res)
	r.G, r.S = newG, rt.S
	return res
}

// RandomBatch builds an arbitrary valid batch against store st: nAdd
// random new edges and nDel deletions of existing edges, drawn from
// st's sorted rows. It does not mutate st. Used by property tests that
// want batch shapes the stream builder never emits (e.g. delete-only,
// duplicate-heavy).
func RandomBatch(st *graph.Store, nAdd, nDel int, seed int64) []graph.Update {
	rng := rand.New(rand.NewSource(seed))
	var batch []graph.Update
	n := st.NumVertices()
	for i := 0; i < nAdd; i++ {
		src := graph.VertexID(rng.Intn(n))
		dst := graph.VertexID(rng.Intn(n))
		if src == dst {
			continue
		}
		batch = append(batch, graph.Update{Edge: graph.Edge{Src: src, Dst: dst, Weight: float32(1 + rng.Intn(16))}})
	}
	// Deletions: sample random existing edges by walking random sources.
	snap := st.Seal()
	for i := 0; i < nDel; i++ {
		src := graph.VertexID(rng.Intn(n))
		ns := snap.OutNeighbors(src)
		if len(ns) == 0 {
			continue
		}
		dst := ns[rng.Intn(len(ns))]
		batch = append(batch, graph.Update{Edge: graph.Edge{Src: src, Dst: dst}, Delete: true})
	}
	return batch
}
