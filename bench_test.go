// Package tdgraph's root benchmark suite: one testing.B benchmark per
// table and figure of the paper's evaluation (run the full-detail
// versions with cmd/tdgraph-bench), plus ablation benches for the design
// decisions called out in DESIGN.md. Benchmarks run at a small dataset
// scale so `go test -bench=. -benchmem` completes in minutes; they report
// the figure's headline metric through b.ReportMetric so the shape is
// visible directly in the bench output.
package tdgraph_test

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/bench"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/native"
)

// benchScale keeps each simulated cell small enough for bench sweeps.
const benchScale = 0.06

func mustRun(b *testing.B, spec bench.Spec) *bench.Result {
	b.Helper()
	r, err := bench.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func spec(scheme, dataset, algoName string) bench.Spec {
	return bench.Spec{Dataset: dataset, Scale: benchScale, Algo: algoName, Scheme: scheme, Seed: 1}
}

// speedupBench measures scheme vs baseline cycles on one cell and reports
// the speedup as the benchmark metric.
func speedupBench(b *testing.B, baseline, scheme, dataset, algoName string) {
	b.Helper()
	var sp float64
	for i := 0; i < b.N; i++ {
		base := mustRun(b, spec(baseline, dataset, algoName))
		r := mustRun(b, spec(scheme, dataset, algoName))
		sp = base.Cycles / r.Cycles
	}
	b.ReportMetric(sp, "speedup")
}

// runExperiment drives a registered experiment once per iteration at
// bench scale on a restricted sweep.
func runExperiment(b *testing.B, id string, opt bench.Options) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	if opt.Scale == 0 {
		opt.Scale = benchScale
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2DatasetStats(b *testing.B) {
	runExperiment(b, "table2", bench.Options{})
}

// BenchmarkFig03 reproduces the software-system comparison (breakdown,
// useless updates, useful fetches) on one dataset.
func BenchmarkFig03(b *testing.B) {
	opt := bench.Options{Datasets: []string{"LJ"}}
	for _, id := range []string{"fig3a", "fig3b", "fig3c"} {
		b.Run(id, func(b *testing.B) { runExperiment(b, id, opt) })
	}
}

// BenchmarkFig04 reproduces the two motivating observations.
func BenchmarkFig04(b *testing.B) {
	opt := bench.Options{Datasets: []string{"LJ"}}
	b.Run("fig4a", func(b *testing.B) { runExperiment(b, "fig4a", opt) })
	b.Run("fig4b", func(b *testing.B) { runExperiment(b, "fig4b", opt) })
}

// BenchmarkFig10 measures the headline TDGraph-H speedup over Ligra-o per
// algorithm on the FR preset.
func BenchmarkFig10(b *testing.B) {
	for _, alg := range []string{"pagerank", "adsorption", "sssp", "cc"} {
		b.Run(alg, func(b *testing.B) {
			speedupBench(b, "Ligra-o", "TDGraph-H", "FR", alg)
		})
	}
}

// BenchmarkFig11 reports the update-operation ratio (TDGraph-H / Ligra-o).
func BenchmarkFig11(b *testing.B) {
	for _, alg := range []string{"pagerank", "sssp"} {
		b.Run(alg, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				base := mustRun(b, spec("Ligra-o", "FR", alg))
				r := mustRun(b, spec("TDGraph-H", "FR", alg))
				ratio = float64(r.StateUpdates) / float64(base.StateUpdates)
			}
			b.ReportMetric(ratio, "update-ratio")
		})
	}
}

// BenchmarkFig12 reports the useful-fetched-state ratios.
func BenchmarkFig12(b *testing.B) {
	var l, td float64
	for i := 0; i < b.N; i++ {
		l = mustRun(b, spec("Ligra-o", "FR", "sssp")).UsefulFetched
		td = mustRun(b, spec("TDGraph-H", "FR", "sssp")).UsefulFetched
	}
	b.ReportMetric(l, "ligra-useful")
	b.ReportMetric(td, "tdgraph-useful")
}

// BenchmarkFig13 is the VSCU ablation.
func BenchmarkFig13(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		without := mustRun(b, spec("TDGraph-H-without", "FR", "pagerank"))
		with := mustRun(b, spec("TDGraph-H", "FR", "pagerank"))
		gain = without.Cycles / with.Cycles
	}
	b.ReportMetric(gain, "vscu-gain")
}

// BenchmarkFig14 times the native (real-machine) engines — Ligra-o
// discipline vs software topology-driven — on actual wall clock.
func BenchmarkFig14(b *testing.B) {
	c, err := enginetest.Make("sssp", enginetest.Config{
		Vertices: 40_000, Degree: 6, BatchSize: 4_000, AddFraction: 0.5, Seed: 1, Kind: "ws",
	})
	if err != nil {
		b.Fatal(err)
	}
	mono := c.Algo.(algo.MonotonicAlgo)
	b.Run("Ligra-o", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			native.LigraO(mono, c.OldG, c.NewG, c.Warm, c.Res, native.Config{})
		}
	})
	b.Run("TDGraph-S-without", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			native.TopologyDriven(mono, c.OldG, c.NewG, c.Warm, c.Res, native.Config{})
		}
	})
}

// BenchmarkFig15 compares TDGraph-H against each hardware accelerator.
func BenchmarkFig15(b *testing.B) {
	for _, accel := range []string{"HATS", "Minnow", "PHI", "DepGraph"} {
		b.Run(accel, func(b *testing.B) {
			speedupBench(b, accel, "TDGraph-H", "FR", "pagerank")
		})
	}
}

// BenchmarkFig16 reports off-chip volume normalised to TDGraph-H.
func BenchmarkFig16(b *testing.B) {
	var js, gp float64
	for i := 0; i < b.N; i++ {
		td := mustRun(b, spec("TDGraph-H", "FR", "sssp"))
		js = float64(mustRun(b, spec("JetStream", "FR", "sssp")).DRAMBytes) / float64(td.DRAMBytes)
		gp = float64(mustRun(b, spec("GraphPulse", "FR", "sssp")).DRAMBytes) / float64(td.DRAMBytes)
	}
	b.ReportMetric(js, "jetstream-vol")
	b.ReportMetric(gp, "graphpulse-vol")
}

// BenchmarkFig17 compares the JetStream variants with TDGraph-H.
func BenchmarkFig17(b *testing.B) {
	for _, s := range []string{"JetStream", "JetStream-with"} {
		b.Run(s, func(b *testing.B) {
			speedupBench(b, s, "TDGraph-H", "FR", "pagerank")
		})
	}
}

// BenchmarkFig18 compares GRASP-based protection with TDGraph.
func BenchmarkFig18(b *testing.B) {
	var vsGrasp float64
	for i := 0; i < b.N; i++ {
		graspSpec := spec("Ligra-o", "FR", "sssp")
		graspSpec.LLCPolicy = "grasp"
		grasp := mustRun(b, graspSpec)
		td := mustRun(b, spec("TDGraph-H", "FR", "sssp"))
		vsGrasp = grasp.Cycles / td.Cycles
	}
	b.ReportMetric(vsGrasp, "speedup-vs-grasp")
}

// BenchmarkFig19 runs the energy-breakdown experiment.
func BenchmarkFig19(b *testing.B) {
	runExperiment(b, "fig19", bench.Options{})
}

// BenchmarkFig20 sweeps memory bandwidth for TDGraph-H.
func BenchmarkFig20(b *testing.B) {
	for _, bw := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("bw%gx", bw), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				s := spec("TDGraph-H", "FR", "sssp")
				s.BandwidthScale = bw
				cycles = mustRun(b, s).Cycles
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkFig21 sweeps the TDTU stack depth (design decision 2).
func BenchmarkFig21(b *testing.B) {
	for _, depth := range []int{2, 10, 64} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				s := spec("TDGraph-H", "FR", "sssp")
				s.StackDepth = depth
				cycles = mustRun(b, s).Cycles
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkFig22 sweeps the VSCU hot fraction alpha.
func BenchmarkFig22(b *testing.B) {
	for _, alpha := range []float64{0.001, 0.005, 0.02} {
		b.Run(fmt.Sprintf("alpha%g", alpha), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				s := spec("TDGraph-H", "FR", "sssp")
				s.Alpha = alpha
				cycles = mustRun(b, s).Cycles
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkFig23 sweeps LLC size and policy.
func BenchmarkFig23(b *testing.B) {
	for _, pol := range []string{"lru", "drrip", "grasp", "popt"} {
		b.Run(pol, func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				s := spec("TDGraph-H", "FR", "sssp")
				s.LLCPolicy = pol
				s.LLCSizeKB = 1 << 10
				cycles = mustRun(b, s).Cycles
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkFig24 sweeps batch size and composition.
func BenchmarkFig24(b *testing.B) {
	b.Run("batch", func(b *testing.B) {
		for _, size := range []int{500, 2000} {
			b.Run(fmt.Sprintf("%d", size), func(b *testing.B) {
				var sp float64
				for i := 0; i < b.N; i++ {
					l := spec("Ligra-o", "FR", "sssp")
					l.BatchSize = size
					td := spec("TDGraph-H", "FR", "sssp")
					td.BatchSize = size
					sp = mustRun(b, l).Cycles / mustRun(b, td).Cycles
				}
				b.ReportMetric(sp, "speedup")
			})
		}
	})
	b.Run("composition", func(b *testing.B) {
		for _, add := range []float64{0.25, 0.75} {
			b.Run(fmt.Sprintf("add%.0f%%", add*100), func(b *testing.B) {
				var sp float64
				for i := 0; i < b.N; i++ {
					l := spec("Ligra-o", "FR", "sssp")
					l.AddFraction = add
					td := spec("TDGraph-H", "FR", "sssp")
					td.AddFraction = add
					sp = mustRun(b, l).Cycles / mustRun(b, td).Cycles
				}
				b.ReportMetric(sp, "speedup")
			})
		}
	})
}

// BenchmarkAblationTracking isolates design decision 1: the two-phase
// TDTU (tracking + synchronised traversal) against the same engine with
// synchronisation disabled (eager dependency-chain traversal, the
// DepGraph discipline).
func BenchmarkAblationTracking(b *testing.B) {
	for _, alg := range []string{"pagerank", "sssp"} {
		b.Run(alg, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				sync := mustRun(b, spec("TDGraph-H", "FR", alg))
				nosync := mustRun(b, spec("TDGraph-nosync", "FR", alg))
				ratio = float64(nosync.StateUpdates) / float64(sync.StateUpdates)
			}
			b.ReportMetric(ratio, "nosync-update-ratio")
		})
	}
}

// BenchmarkAblationCores sweeps the core count (the chunked-dispatch
// design, decision 4).
func BenchmarkAblationCores(b *testing.B) {
	for _, cores := range []int{8, 16, 64} {
		b.Run(fmt.Sprintf("cores%d", cores), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				s := spec("TDGraph-H", "FR", "sssp")
				s.Cores = cores
				cycles = mustRun(b, s).Cycles
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkCheckpointSave cuts one checkpoint generation of a native
// session shaped like benchmark/'s g-big after warm-up (262K vertices,
// ≈1.05M R-MAT edges) — temp file, fsync, rename and all. B/op is the
// number to watch: after an untimed first save has sized the session's
// file buffer and the store's row scratch, a save streams from the store
// into that buffer and allocates only the temp file's bookkeeping, a few
// KB whatever the graph's size (the `check` CI job prints it).
func BenchmarkCheckpointSave(b *testing.B) {
	const nv = 1 << 18
	edges := gen.RMAT(gen.RMATConfig{NumVertices: nv, NumEdges: 1 << 20, A: 0.57, B: 0.19, C: 0.19, Seed: 1, MaxWeight: 64})
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ck := tdgraph.NewCheckpointer(filepath.Join(b.TempDir(), "ckpt.tds"))
	meta := make([]byte, 8)
	if err := ck.SaveWithMeta(s, meta); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ck.SaveWithMeta(s, meta); err != nil {
			b.Fatal(err)
		}
	}
}
