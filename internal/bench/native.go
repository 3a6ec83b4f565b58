package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/native"
)

// This file measures the production apply path: the stateful incremental
// native engine (mutable hybrid store + worklist repair) against the
// path it replaced — rebuild the immutable CSR/CSC snapshot per batch
// and run the one-shot engine over the old/new snapshot pair. The output
// is BENCH_native.json (written by cmd/tdgraph-bench -nativejson or the
// "benchnative" experiment).

// NativeRun is one measured batch size, both arms.
type NativeRun struct {
	BatchSize int `json:"batch_size"` // updates per batch

	// Incremental arm: native.Session.ApplyBatch (store mutation +
	// incremental repair + worklist propagation).
	IncNsPerUpdate float64 `json:"incremental_ns_per_update"`
	IncAllocsPerOp float64 `json:"incremental_allocs_per_batch"`

	// Rebuild arm: builder apply + full CSR/CSC snapshot + one-shot
	// engine over the snapshot pair (the pre-Session production path).
	RebuildNsPerUpdate float64 `json:"rebuild_ns_per_update"`
	RebuildAllocsPerOp float64 `json:"rebuild_allocs_per_batch"`

	Speedup float64 `json:"speedup_incremental_vs_rebuild"`
}

// NativeReport is the BENCH_native.json document.
type NativeReport struct {
	Experiment  string `json:"experiment"`
	Algo        string `json:"algo"`
	NumVertices int    `json:"num_vertices"`
	NumEdges    int    `json:"num_edges"`
	Workers     int    `json:"workers"`

	HostCPUs     int `json:"host_num_cpu"`
	HostMaxProcs int `json:"host_gomaxprocs"`

	Runs []NativeRun `json:"runs"`

	// SteadyStateZeroAlloc records that the incremental arm allocated
	// nothing per batch once warm (measured at every batch size).
	SteadyStateZeroAlloc bool `json:"incremental_steady_state_zero_alloc"`
	// Deterministic records that both arms ended every batch size with
	// Float64bits-identical states.
	Deterministic bool `json:"arms_bit_identical"`
}

// RunNativeReport measures incremental vs CSR-rebuild apply cost across
// batch sizes on an RMAT graph. Each batch toggles existing edges
// (delete then re-add), so the graph — and therefore each op's work —
// is identical across iterations and arms.
func RunNativeReport(o Options) (*NativeReport, error) {
	o = o.withDefaults()
	const (
		nv = 8192
		ne = 1 << 16
	)
	workers := runtime.GOMAXPROCS(0)
	rep := &NativeReport{
		Experiment:           "benchnative: incremental session vs per-batch CSR rebuild",
		Algo:                 "sssp",
		NumVertices:          nv,
		NumEdges:             ne,
		Workers:              workers,
		HostCPUs:             runtime.NumCPU(),
		HostMaxProcs:         runtime.GOMAXPROCS(0),
		SteadyStateZeroAlloc: true,
		Deterministic:        true,
	}
	edges := gen.RMAT(gen.RMATConfig{
		NumVertices: nv, NumEdges: ne,
		A: 0.57, B: 0.19, C: 0.19, Seed: o.Seed, MaxWeight: 16,
	})
	mkAlgo := func() algo.MonotonicAlgo { return algo.NewSSSP(0) }
	cfg := native.Config{Workers: workers}

	for _, bs := range []int{1, 8, 64, 512} {
		// Toggle batches over distinct existing edges, deterministic per
		// batch size.
		rng := rand.New(rand.NewSource(o.Seed + int64(bs)))
		perm := rng.Perm(len(edges))[:bs]
		del := make([]graph.Update, bs)
		add := make([]graph.Update, bs)
		for i, ei := range perm {
			del[i] = graph.Update{Edge: edges[ei], Delete: true}
			add[i] = graph.Update{Edge: edges[ei]}
		}

		run := NativeRun{BatchSize: bs}

		// Incremental arm. Warm until every reusable buffer reached
		// steady-state capacity, then measure.
		sess := native.NewSession(mkAlgo(), graph.NewStoreFromEdges(nv, edges), cfg)
		for i := 0; i < 10; i++ {
			sess.ApplyBatch(del)
			sess.ApplyBatch(add)
		}
		incBatches := 400
		if incBatches*bs > 1<<16 {
			incBatches = 1 << 16 / bs
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < incBatches; i += 2 {
			sess.ApplyBatch(del)
			sess.ApplyBatch(add)
		}
		incWall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		run.IncNsPerUpdate = float64(incWall.Nanoseconds()) / float64(incBatches*bs)
		run.IncAllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(incBatches)
		if run.IncAllocsPerOp >= 1 {
			rep.SteadyStateZeroAlloc = false
		}
		incStates := sess.StatesCopy()
		sess.Close()

		// Rebuild arm: the old path — builder apply, full snapshot, and
		// the one-shot native engine over the snapshot pair.
		bld := graph.NewBuilderFromEdges(nv, edges)
		oldG := bld.Snapshot()
		warm := algo.Reference(mkAlgo(), oldG)
		rebuildBatches := 6
		runtime.ReadMemStats(&ms0)
		start = time.Now()
		for i := 0; i < rebuildBatches; i += 2 {
			for _, batch := range [][]graph.Update{del, add} {
				res := bld.Apply(batch)
				newG := bld.Snapshot()
				warm = native.TopologyDriven(mkAlgo(), oldG, newG, warm, res, cfg)
				oldG = newG
			}
		}
		rebuildWall := time.Since(start)
		runtime.ReadMemStats(&ms1)
		run.RebuildNsPerUpdate = float64(rebuildWall.Nanoseconds()) / float64(rebuildBatches*bs)
		run.RebuildAllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(rebuildBatches)
		if run.IncNsPerUpdate > 0 {
			run.Speedup = run.RebuildNsPerUpdate / run.IncNsPerUpdate
		}
		// Both arms toggled the same edges back in: states must agree
		// bit-for-bit with each other (and the reference fixpoint).
		for v := range warm {
			if incStates[v] != warm[v] {
				rep.Deterministic = false
				break
			}
		}
		rep.Runs = append(rep.Runs, run)
	}
	return rep, nil
}

// WriteJSON renders the report as indented JSON.
func (r *NativeReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func expBenchNative(w io.Writer, o Options) error {
	rep, err := RunNativeReport(o)
	if err != nil {
		return err
	}
	t := &Table{
		Title:  "Native apply path: incremental session vs per-batch CSR rebuild (SSSP, RMAT)",
		Header: []string{"batch", "inc ns/upd", "inc allocs/batch", "rebuild ns/upd", "rebuild allocs/batch", "speedup"},
		Comment: fmt.Sprintf(
			"%d vertices, %d edges, %d workers; steady-state zero-alloc: %v, arms bit-identical: %v",
			rep.NumVertices, rep.NumEdges, rep.Workers, rep.SteadyStateZeroAlloc, rep.Deterministic),
	}
	for _, r := range rep.Runs {
		t.AddRow(fmt.Sprintf("%d", r.BatchSize),
			fmt.Sprintf("%.1f", r.IncNsPerUpdate), fmt.Sprintf("%.1f", r.IncAllocsPerOp),
			fmt.Sprintf("%.1f", r.RebuildNsPerUpdate), fmt.Sprintf("%.1f", r.RebuildAllocsPerOp),
			fmt.Sprintf("%.1fx", r.Speedup))
	}
	return o.render(t, w)
}

func init() {
	register("benchnative", "Native apply path: incremental session vs per-batch CSR rebuild (BENCH_native.json)", expBenchNative)
}
