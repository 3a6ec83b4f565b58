// Command tdgraph-run processes a streaming-graph workload with one
// scheme and reports results and metrics. It is the single-run
// counterpart of tdgraph-bench: useful for inspecting a configuration
// before sweeping it. Every simulated batch is a bench cell (bench.Build,
// then Cell.Run), so a one-batch run prints the simulated cycles and
// DRAM bytes tdgraph-bench measures for the same dataset, scale,
// algorithm, scheme and seed.
//
// Usage:
//
//	tdgraph-run -dataset LJ -algo sssp -scheme TDGraph-H [-scale 0.25]
//	            [-batches 3] [-add 0.75] [-cores 64]
//	tdgraph-run -input edges.txt -algo cc -scheme Ligra-o
//	tdgraph-run -dataset AZ -algo sssp -engine native   # wall-clock incremental engine
//
// With -engine native the batches run through the production
// incremental engine (mutable hybrid store, persistent worklists) at
// wall-clock speed instead of the simulated machine; -scheme, -cores
// and -timeout are simulator-only and ignored.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/bench"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
)

func main() {
	var (
		dataset  = flag.String("dataset", "LJ", "dataset preset (AZ,DL,GL,LJ,OR,FR)")
		input    = flag.String("input", "", "SNAP edge-list file (overrides -dataset)")
		scale    = flag.Float64("scale", 0.25, "preset scale factor")
		algoName = flag.String("algo", "sssp", "algorithm: pagerank|adsorption|sssp|cc")
		scheme   = flag.String("scheme", "TDGraph-H", "scheme (see tdgraph-bench docs)")
		engName  = flag.String("engine", "sim", "execution engine: sim (simulated machine, honors -scheme) | native (wall-clock incremental engine)")
		batches  = flag.Int("batches", 1, "number of update batches to stream")
		batchSz  = flag.Int("batch", 0, "updates per batch (0 = edges/20)")
		addFrac  = flag.Float64("add", 0.75, "fraction of additions per batch")
		cores    = flag.Int("cores", 64, "simulated cores")
		seed     = flag.Int64("seed", 1, "workload seed")
		verify   = flag.Bool("verify", true, "check every batch against the full-recompute oracle")
		validate = flag.String("validate", "", "ingestion validation policy: none|reject|clamp|quarantine")
		timeout  = flag.Duration("timeout", 0, "per-batch watchdog deadline for the simulated run (0 = unbounded)")
	)
	flag.Parse()

	var edges []graph.Edge
	var nv int
	if *input != "" {
		var err error
		edges, nv, err = graph.LoadSNAPFile(*input)
		if err != nil {
			fatal(err)
		}
	} else {
		p, err := gen.PresetByName(*dataset)
		if err != nil {
			fatal(err)
		}
		edges, nv = p.Generate(*scale)
	}
	bs := *batchSz
	if bs <= 0 {
		bs = len(edges) / 20
		if bs < 100 {
			bs = 100
		}
	}
	cfg := stream.Config{
		WarmupFraction: 0.5, BatchSize: bs, AddFraction: *addFrac,
		NumBatches: *batches, Seed: *seed,
	}
	pol, err := stream.ParsePolicy(*validate)
	if err != nil {
		fatal(err)
	}
	vcol := stats.NewCollector()
	validator := stream.NewValidator(pol, nv, vcol)
	w := stream.Build(edges, nv, cfg)
	fmt.Printf("graph: %d vertices, %d edges; warmup %d edges; %d batches of %d updates\n",
		nv, len(edges), len(w.Warmup), len(w.Batches), bs)

	a, err := enginetest.NewAlgorithm(*algoName, nv, *seed)
	if err != nil {
		fatal(err)
	}

	if *engName == "native" {
		runNative(a, w, nv, validator, *verify)
		reportValidation(validator, vcol)
		return
	} else if *engName != "sim" {
		fatal(fmt.Errorf("unknown engine %q (sim|native)", *engName))
	}

	st := graph.NewStoreFromEdges(w.NumVertices, w.Warmup)
	oldG := st.Seal()
	fmt.Print("computing initial fixed point... ")
	start := time.Now()
	warm := algo.Reference(a, oldG)
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))

	for i, batch := range w.Batches {
		batch, err := validator.Sanitize(batch)
		if err != nil {
			fatal(fmt.Errorf("batch %d: %w", i+1, err))
		}
		res := st.Apply(batch)
		c := &enginetest.Case{Algo: a, OldG: oldG, NewG: st.Seal(), Warm: warm, Res: res, Batch: batch}
		cell, err := bench.Build(bench.Spec{Scheme: *scheme, Cores: *cores}, c)
		if err != nil {
			fatal(err)
		}
		ctx, cancel := context.Background(), context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		r, err := cell.Run(ctx)
		cancel()
		if err != nil {
			fatal(fmt.Errorf("batch %d: %w", i+1, err))
		}

		fmt.Printf("\nbatch %d: +%d -%d (skipped %d), %d affected vertices\n",
			i+1, res.Added, res.Deleted, res.Skipped, len(res.Affected))
		fmt.Printf("  simulated cycles: %.0f (%.2f ms at 2.5 GHz)\n", r.Cycles, r.Cycles/2.5e6)
		fmt.Printf("  update operations: %d, iterations: %d\n",
			r.StateUpdates, r.Collector.Get(stats.CtrIterations))
		fmt.Printf("  DRAM traffic: %d bytes, LLC miss rate: %.1f%%\n",
			r.DRAMBytes, r.LLCMissRate*100)
		fmt.Printf("  host wall time: %s\n", r.Wall.Round(time.Millisecond))

		if *verify {
			if err := c.Verify(cell.Sys); err != nil {
				fatal(fmt.Errorf("batch %d: %w", i+1, err))
			}
			fmt.Println("  verified against full recompute ✓")
		}

		// Carry the converged states into the next batch.
		warm = cell.Sys.Runtime().S
		oldG = c.NewG
	}

	reportValidation(validator, vcol)
}

// runNative streams the workload through the production incremental
// engine (tdgraph.Session) at wall-clock
// speed. Verification compares against the full-recompute oracle on the
// sealed graph; monotonic algorithms must match bit-for-bit.
func runNative(a algo.Algorithm, w *stream.Workload, nv int, validator *stream.Validator, verify bool) {
	fmt.Print("computing initial fixed point... ")
	start := time.Now()
	s, err := tdgraph.NewSession(a, w.Warmup, nv, tdgraph.SessionOptions{})
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	fmt.Printf("done in %s\n", time.Since(start).Round(time.Millisecond))

	for i, batch := range w.Batches {
		batch, err := validator.Sanitize(batch)
		if err != nil {
			fatal(fmt.Errorf("batch %d: %w", i+1, err))
		}
		start = time.Now()
		res, err := s.ApplyBatch(batch)
		if err != nil {
			fatal(fmt.Errorf("batch %d: %w", i+1, err))
		}
		wall := time.Since(start)

		fmt.Printf("\nbatch %d: +%d -%d (skipped %d), %d affected vertices\n",
			i+1, res.Added, res.Deleted, res.Skipped, len(res.Affected))
		if col := s.Metrics(); col != nil {
			fmt.Printf("  visits=%d edges=%d steals=%d tags=%d resets=%d\n",
				col.Get(stats.CtrPropagationVisits), col.Get(stats.CtrEdgesProcessed),
				col.Get(stats.CtrWorkSteals), col.Get(stats.CtrTagPropagations), col.Get(stats.CtrResets))
		}
		fmt.Printf("  host wall time: %s\n", wall.Round(time.Microsecond))

		if verify {
			want := algo.Reference(a, s.Graph())
			tol := 0.0 // monotonic: the fixpoint is unique, demand bit equality
			if a.Kind() == algo.Accumulative {
				tol = 1e-4
			}
			if bad := algo.StatesEqual(s.States(), want, tol); bad >= 0 {
				fatal(fmt.Errorf("batch %d: state mismatch at vertex %d", i+1, bad))
			}
			fmt.Println("  verified against full recompute ✓")
		}
	}
}

// reportValidation prints the validation summary shared by both
// engines.
func reportValidation(validator *stream.Validator, vcol *stats.Collector) {
	if validator.Policy != stream.PolicyNone {
		fmt.Printf("validation (%s): out_of_range=%d bad_weight=%d self_loop=%d dropped=%d clamped=%d quarantined=%d diverted=%d\n",
			validator.Policy,
			vcol.Get(stats.CtrValOutOfRange), vcol.Get(stats.CtrValBadWeight),
			vcol.Get(stats.CtrValSelfLoop), vcol.Get(stats.CtrValDropped),
			vcol.Get(stats.CtrValClamped), vcol.Get(stats.CtrValQuarantined),
			vcol.Get(stats.CtrValQuarantineHits))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdgraph-run:", err)
	os.Exit(1)
}
