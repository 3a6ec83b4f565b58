package main

import (
	"fmt"
	"hash/fnv"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/stream"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// graphSpec is one R-MAT input (a/b/c = 0.57/0.19/0.19, weights 1..64).
// The sizes are fixed relative to this host's caches: 8 bytes of state
// per vertex makes g-small 256 KB (L2-resident) and g-big/g-dense 2 MB
// of state over a store of tens of MB (out of L2).
type graphSpec struct {
	Name     string
	Vertices int
	Edges    int
}

var (
	gSmall = graphSpec{"g-small", 32_768, 262_144}
	gBig   = graphSpec{"g-big", 262_144, 2_097_152}
	gDense = graphSpec{"g-dense", 262_144, 4_194_304}
)

// fullSeconds is the timed length the per-workload batch counts below
// were sized for on the reference 2-CPU host (about 20 s each). A run
// asked for fewer seconds shrinks every count by one common factor, so
// a run is still sized by batch count — sample counts and the program's
// own counters repeat — while -seconds sets how long it measures.
const fullSeconds = 20

// workloadSpec is one traffic mix. Names are the contract later changes
// are judged against; Why is the one-line reason the workload exists.
type workloadSpec struct {
	Name      string
	Why       string
	Graph     graphSpec
	Warmup    float64 // share of the edge list loaded before streaming
	Batches   int     // batches at fullSeconds, untimed ones included
	BatchSize int
	AddFrac   float64
	CkptEvery int
	Window    int // submits outstanding on the one client connection
	Untimed   int // leading batches submitted but not timed, at fullSeconds
	// MinUntimed floors the scaled untimed count: enough batches that
	// the leader's caches, the TCP windows and (for ckpt-default) the
	// first checkpoint generation exist before timing starts.
	MinUntimed int
	// Ladder is how many batches the offline ladder replay pushes
	// through each layer; medians over this many are steady, and the
	// bootstraps around them dominate the ladder's cost anyway.
	Ladder int
}

var workloads = []workloadSpec{
	{
		Name: "tiny-quorum", Graph: gSmall, Warmup: 0.5, Batches: 16_000, BatchSize: 4, AddFrac: 0.75,
		CkptEvery: 4096, Window: 1, Untimed: 500, MinUntimed: 100, Ladder: 400,
		Why: "4-update batches on a cache-resident graph: per-batch fixed cost (frames, 3 serial fsyncs, 2 serial follower round trips) is the time, the engine almost none",
	},
	{
		Name: "tiny-pipelined", Graph: gSmall, Warmup: 0.5, Batches: 16_000, BatchSize: 4, AddFrac: 0.75,
		CkptEvery: 4096, Window: 32, Untimed: 500, MinUntimed: 100, Ladder: 400,
		Why: "tiny-quorum's input with 32 submits in flight on the one connection: the only place group commit can show, or a latency win bought by serialising can cost throughput",
	},
	{
		Name: "bulk-insert", Graph: gDense, Warmup: 0.25, Batches: 1_400, BatchSize: 2048, AddFrac: 1.0,
		CkptEvery: 4096, Window: 1, Untimed: 50, MinUntimed: 10, Ladder: 40,
		Why: "2048-insert batches on an out-of-cache graph: Store.Apply inserts and monotonic propagation, run once per member, dominate; fixed costs are under 5%",
	},
	{
		Name: "churn", Graph: gBig, Warmup: 0.5, Batches: 2_000, BatchSize: 512, AddFrac: 0.5,
		CkptEvery: 4096, Window: 1, Untimed: 100, MinUntimed: 20, Ladder: 60,
		Why: "half deletions on an out-of-cache graph: the tag/reset/re-gather repair and the store's hash-delete path, so an insert-path gain that costs deletions shows",
	},
	{
		Name: "ckpt-default", Graph: gBig, Warmup: 0.5, Batches: 320, BatchSize: 16, AddFrac: 0.75,
		CkptEvery: 16, Window: 1, Untimed: 16, MinUntimed: 16, Ladder: 48,
		Why: "tdgraph-serve's default -ckpt-every 16 on a non-toy graph: inline checkpoint saves on every member and the session wrapper's per-batch O(V) copy do most of the work",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaled returns the spec with its batch counts shrunk (or grown) from
// fullSeconds to the requested run length. (ckpt-default's 320 batches
// are 16 a second, so any whole number of seconds keeps whole
// checkpoint periods.)
func (w workloadSpec) scaled(seconds int) workloadSpec {
	scale := func(n int) int { return (n*seconds + fullSeconds/2) / fullSeconds }
	w.Untimed = max(scale(w.Untimed), w.MinUntimed)
	w.Batches = max(scale(w.Batches), 2*w.Untimed)
	w.Ladder = min(w.Ladder, w.Batches)
	return w
}

// inputs is everything a run feeds the program: generated from the seed
// here, so the program under test receives only data.
type inputs struct {
	Spec    workloadSpec
	Seed    int64
	Warmup  []graph.Edge
	Batches [][]graph.Update
	Digest  string // FNV-64a over the encoded batch list
}

// generate builds the workload's graph and update stream from the seed.
// The same (spec, seed) always yields a byte-identical batch list.
func generate(spec workloadSpec, seed int64) (*inputs, error) {
	edges := gen.RMAT(gen.RMATConfig{
		NumVertices: spec.Graph.Vertices, NumEdges: spec.Graph.Edges,
		A: 0.57, B: 0.19, C: 0.19, Seed: seed, MaxWeight: 64,
	})
	w := stream.Build(edges, spec.Graph.Vertices, stream.Config{
		WarmupFraction: spec.Warmup, BatchSize: spec.BatchSize, AddFraction: spec.AddFrac,
		NumBatches: spec.Batches, Seed: seed,
	})
	if len(w.Batches) != spec.Batches {
		return nil, fmt.Errorf("%s: graph %s yields %d batches, the workload needs %d",
			spec.Name, spec.Graph.Name, len(w.Batches), spec.Batches)
	}
	in := &inputs{Spec: spec, Seed: seed, Warmup: w.Warmup, Batches: w.Batches}
	h := fnv.New64a()
	for _, b := range w.Batches {
		h.Write(wal.EncodeBatch(b))
	}
	in.Digest = fmt.Sprintf("%016x", h.Sum64())
	return in, nil
}
