// Package stream builds streaming-graph workloads following the paper's
// methodology (§4.1): load 50% of the edges to reach an initial fixed
// point, then stream the remaining edges in as additions while deletions
// are sampled from the already-loaded graph; additions and deletions are
// mixed within each batch (default 100K updates per batch).
package stream

import (
	"math/rand"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// Config controls workload construction.
type Config struct {
	// WarmupFraction of the edge list loaded before streaming starts.
	// The paper uses 0.5.
	WarmupFraction float64
	// BatchSize is the number of updates per batch (paper default 100K;
	// scaled workloads use proportionally smaller batches).
	BatchSize int
	// AddFraction is the share of additions in each batch, the rest are
	// deletions (Fig 24b sweeps this). The paper's default mix is an
	// even blend of the remaining additions with sampled deletions.
	AddFraction float64
	// NumBatches bounds how many batches to construct; 0 means as many
	// as the remaining additions allow.
	NumBatches int
	Seed       int64
	// Mutate, when non-nil, transforms each finished batch — the fault
	// injection hook. It runs after the live-set bookkeeping so injected
	// noise can never corrupt deletion-candidate tracking for later
	// batches: the workload stays internally consistent while the
	// batches handed to the pipeline carry the faults.
	Mutate func([]graph.Update) []graph.Update
}

// DefaultConfig mirrors the paper's defaults at full scale.
func DefaultConfig() Config {
	return Config{WarmupFraction: 0.5, BatchSize: 100_000, AddFraction: 0.75, NumBatches: 1, Seed: 1}
}

// Workload is a constructed streaming run: the warmup edge set (already a
// consistent prefix) and the ordered update batches to play.
type Workload struct {
	NumVertices int
	Warmup      []graph.Edge
	Batches     [][]graph.Update
}

// Build shuffles the edge list deterministically, splits off the warmup
// prefix, and slices the remainder into batches. Deletions are sampled
// (without replacement within a batch) from the set of currently live
// edges, so a constructed workload never deletes a missing edge.
func Build(edges []graph.Edge, numVertices int, cfg Config) *Workload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	shuffled := make([]graph.Edge, len(edges))
	copy(shuffled, edges)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	warm := int(float64(len(shuffled)) * cfg.WarmupFraction)
	if warm < 0 {
		warm = 0
	}
	if warm > len(shuffled) {
		warm = len(shuffled)
	}
	w := &Workload{NumVertices: numVertices, Warmup: shuffled[:warm]}

	// live tracks edges currently in the graph (warmup plus applied
	// additions minus applied deletions) as deletion candidates.
	live := make([]graph.Edge, 0, len(shuffled))
	live = append(live, shuffled[:warm]...)
	pendingAdds := shuffled[warm:]

	addsPerBatch := int(float64(cfg.BatchSize) * cfg.AddFraction)
	delsPerBatch := cfg.BatchSize - addsPerBatch

	for batchIdx := 0; ; batchIdx++ {
		if cfg.NumBatches > 0 && batchIdx >= cfg.NumBatches {
			break
		}
		if len(pendingAdds) == 0 && delsPerBatch == 0 {
			break
		}
		nAdd := addsPerBatch
		if nAdd > len(pendingAdds) {
			nAdd = len(pendingAdds)
		}
		nDel := delsPerBatch
		if nDel > len(live) {
			nDel = len(live)
		}
		if nAdd == 0 && nDel == 0 {
			break
		}
		batch := make([]graph.Update, 0, nAdd+nDel)
		for _, e := range pendingAdds[:nAdd] {
			batch = append(batch, graph.Update{Edge: e})
		}
		pendingAdds = pendingAdds[nAdd:]
		// Sample deletions without replacement by partial
		// Fisher-Yates over the live slice tail.
		for i := 0; i < nDel; i++ {
			j := rng.Intn(len(live) - i)
			live[j], live[len(live)-1-i] = live[len(live)-1-i], live[j]
		}
		deleted := live[len(live)-nDel:]
		for _, e := range deleted {
			batch = append(batch, graph.Update{Edge: e, Delete: true})
		}
		live = live[:len(live)-nDel]
		// Interleave adds and deletes deterministically so batches are
		// mixed rather than add-block + delete-block.
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		// Applied additions become deletion candidates for later batches.
		for _, u := range batch {
			if !u.Delete {
				live = append(live, u.Edge)
			}
		}
		if cfg.Mutate != nil {
			batch = cfg.Mutate(batch)
		}
		w.Batches = append(w.Batches, batch)
		if cfg.NumBatches == 0 && len(pendingAdds) == 0 {
			break
		}
	}
	return w
}

// WarmupBuilder returns a Builder loaded with the warmup edges, ready for
// the initial fixed-point computation.
func (w *Workload) WarmupBuilder() *graph.Builder {
	return graph.NewBuilderFromEdges(w.NumVertices, w.Warmup)
}

// MergeBatches concatenates two batches into a fresh slice, preserving
// update order — the granularity-growing step of overload degradation:
// applying the merged batch converges to the same states as applying
// the two in sequence, at one batch's fixed cost instead of two.
func MergeBatches(a, b []graph.Update) []graph.Update {
	out := make([]graph.Update, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// Coalesce greedily merges adjacent batches while the merged size stays
// within maxUpdates (0 = unlimited, collapsing everything into one
// batch). Order is preserved. The serve queue uses it to trade batch
// granularity for queue space under backpressure.
func Coalesce(batches [][]graph.Update, maxUpdates int) [][]graph.Update {
	var out [][]graph.Update
	for _, b := range batches {
		last := len(out) - 1
		if last >= 0 && (maxUpdates <= 0 || len(out[last])+len(b) <= maxUpdates) {
			out[last] = MergeBatches(out[last], b)
			continue
		}
		out = append(out, b)
	}
	return out
}
