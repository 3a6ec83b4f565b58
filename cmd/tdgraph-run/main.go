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
// wall-clock speed instead of the simulated machine; -scheme, -cores,
// -trace and -timeout are simulator-only and ignored.
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
	"github.com/tdgraph/tdgraph/internal/fault"
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
		trace    = flag.String("trace", "", "write a memory access trace of the last batch to this file")
		faults   = flag.String("faults", "", "seeded fault-injection spec over the batch classes corrupt dup reorder oob badweight selfloop, e.g. 'corrupt,oob:0.1,badweight' (seeded by -seed)")
		validate = flag.String("validate", "", "ingestion validation policy: none|reject|clamp|quarantine (clamp forced when -faults is set)")
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
	vcol := stats.NewCollector()
	inj, validator, err := bench.Ingest(&cfg, *faults, *validate, nv, vcol)
	if err != nil {
		fatal(err)
	}
	w := stream.Build(edges, nv, cfg)
	fmt.Printf("graph: %d vertices, %d edges; warmup %d edges; %d batches of %d updates\n",
		nv, len(edges), len(w.Warmup), len(w.Batches), bs)

	a, err := enginetest.NewAlgorithm(*algoName, nv, *seed)
	if err != nil {
		fatal(err)
	}

	if *engName == "native" {
		runNative(a, w, nv, validator, vcol, inj, *verify)
		reportTail(inj, validator, vcol)
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
		var traceFile *os.File
		if *trace != "" && i == len(w.Batches)-1 {
			traceFile, err = os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			cell.M.SetTrace(traceFile)
		}
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		r, err := cell.Run(ctx)
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
			if err := c.Verify(cell.Sys); err == nil {
				fmt.Println("  verified against full recompute ✓")
			} else if inj == nil {
				fatal(fmt.Errorf("batch %d: %w", i+1, err))
			} else {
				// Degradation ladder: an injected fault diverged the
				// incremental result, so fall back to the recompute and
				// keep streaming from the known-good states.
				vcol.Inc(stats.CtrDegradedRecomputes)
				copy(cell.Sys.Runtime().S, algo.Reference(a, c.NewG))
				fmt.Printf("  divergence under injection (%v): degraded to full recompute\n", err)
			}
		}
		if traceFile != nil {
			if err := cell.M.FlushTrace(); err != nil {
				fatal(err)
			}
			if err := traceFile.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("  memory trace written to %s\n", *trace)
		}

		// Carry the converged states into the next batch.
		warm = cell.Sys.Runtime().S
		oldG = c.NewG
	}

	reportTail(inj, validator, vcol)
}

// runNative streams the workload through the production incremental
// engine (tdgraph.Session) at wall-clock
// speed. Verification compares against the full-recompute oracle on the
// sealed graph; monotonic algorithms must match bit-for-bit.
func runNative(a algo.Algorithm, w *stream.Workload, nv int, validator *stream.Validator, vcol *stats.Collector, inj *fault.Injector, verify bool) {
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
				if inj == nil {
					fatal(fmt.Errorf("batch %d: state mismatch at vertex %d", i+1, bad))
				}
				vcol.Inc(stats.CtrDegradedRecomputes)
				s.Recompute()
				fmt.Printf("  divergence at vertex %d under injection: degraded to full recompute\n", bad)
			} else {
				fmt.Println("  verified against full recompute ✓")
			}
		}
	}
}

// reportTail prints the injection and validation summaries shared by
// both engines.
func reportTail(inj *fault.Injector, validator *stream.Validator, vcol *stats.Collector) {
	if inj != nil {
		fmt.Print("\nfaults injected:")
		for _, cc := range inj.Injected() {
			fmt.Printf(" %s=%d", cc.Class, cc.Count)
		}
		fmt.Println()
	}
	if validator.Policy != stream.PolicyNone {
		fmt.Printf("validation (%s): out_of_range=%d bad_weight=%d self_loop=%d dropped=%d clamped=%d quarantined=%d diverted=%d degraded=%d\n",
			validator.Policy,
			vcol.Get(stats.CtrValOutOfRange), vcol.Get(stats.CtrValBadWeight),
			vcol.Get(stats.CtrValSelfLoop), vcol.Get(stats.CtrValDropped),
			vcol.Get(stats.CtrValClamped), vcol.Get(stats.CtrValQuarantined),
			vcol.Get(stats.CtrValQuarantineHits), vcol.Get(stats.CtrDegradedRecomputes))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdgraph-run:", err)
	os.Exit(1)
}
