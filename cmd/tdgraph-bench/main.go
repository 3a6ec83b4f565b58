// Command tdgraph-bench regenerates the paper's tables and figures on the
// simulated 64-core machine.
//
// Usage:
//
//	tdgraph-bench -list
//	tdgraph-bench -exp fig10 [-scale 0.25] [-datasets LJ,OR] [-algos sssp] [-cores 64] [-seed 1]
//	tdgraph-bench -exp all
//	tdgraph-bench -exp robust -seed 7
//	tdgraph-bench -exp fig10 -faults corrupt,oob -validate clamp -timeout 2m
//	tdgraph-bench -nativejson BENCH_native.json
//
// -nativejson measures the wall-clock production apply path — the
// incremental native session against per-batch CSR rebuild across batch
// sizes — and writes BENCH_native.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/tdgraph/tdgraph/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (fig3a..fig24b, table1..table3, or 'all')")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.Float64("scale", 0.25, "dataset scale factor (1.0 = preset default size)")
		datasets = flag.String("datasets", "", "comma-separated dataset subset (AZ,DL,GL,LJ,OR,FR)")
		algos    = flag.String("algos", "", "comma-separated algorithm subset (pagerank,adsorption,sssp,cc)")
		cores    = flag.Int("cores", 64, "simulated core count")
		seed     = flag.Int64("seed", 1, "workload seed")
		csvOut   = flag.Bool("csv", false, "emit CSV instead of aligned text")
		natjson  = flag.String("nativejson", "", "measure the native apply path (incremental session vs per-batch CSR rebuild) and write BENCH_native.json to this path")
		faults   = flag.String("faults", "", "seeded fault-injection spec over the batch classes corrupt dup reorder oob badweight selfloop, e.g. 'corrupt,oob:0.1,badweight' (seeded by -seed)")
		validate = flag.String("validate", "", "ingestion validation policy: none|reject|clamp|quarantine (clamp forced when -faults is set)")
		timeout  = flag.Duration("timeout", 0, "per-cell watchdog deadline (0 = unbounded)")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	opt := bench.Options{
		Scale: *scale, Cores: *cores, Seed: *seed, CSV: *csvOut,
		Faults:      *faults,
		FaultPolicy: *validate,
		Timeout:     *timeout,
	}
	if *datasets != "" {
		opt.Datasets = strings.Split(*datasets, ",")
	}
	if *algos != "" {
		opt.Algos = strings.Split(*algos, ",")
	}

	if *natjson != "" {
		start := time.Now()
		rep, err := bench.RunNativeReport(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tdgraph-bench: nativejson: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*natjson)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tdgraph-bench: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tdgraph-bench: %v\n", err)
			os.Exit(1)
		}
		last := rep.Runs[len(rep.Runs)-1]
		fmt.Printf("# wrote %s in %s (batch=%d: %.0f ns/update incremental vs %.0f rebuild, %.0fx; zero-alloc: %v, identical: %v)\n",
			*natjson, time.Since(start).Round(time.Millisecond),
			last.BatchSize, last.IncNsPerUpdate, last.RebuildNsPerUpdate, last.Speedup,
			rep.SteadyStateZeroAlloc, rep.Deterministic)
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "tdgraph-bench: -exp required (use -list to see experiments)")
		os.Exit(2)
	}

	run := func(e bench.Experiment) {
		start := time.Now()
		if err := e.Run(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "tdgraph-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if !*csvOut {
			fmt.Printf("# %s completed in %s\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}

	if *exp == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
		return
	}
	e, ok := bench.ByID(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "tdgraph-bench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}
