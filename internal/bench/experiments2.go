package bench

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/energy"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/native"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// expTable1 prints the simulated system configuration.
func expTable1(w io.Writer, o Options) error {
	cfg := sim.DefaultConfig()
	t := &Table{Title: "Table 1 — configuration of the simulated system", Header: []string{"component", "value"}}
	t.AddRow("Cores", fmt.Sprintf("%d cores, x86-64-like, 2.5 GHz, OOO (overlap factor %g)", cfg.Cores, cfg.MLP))
	t.AddRow("L1 data cache", fmt.Sprintf("%d KB per-core, %d-way, %d-cycle latency", cfg.L1SizeKB, cfg.L1Ways, cfg.L1Latency))
	t.AddRow("L2 cache", fmt.Sprintf("%d KB private per-core, %d-way, %d-cycle latency", cfg.L2SizeKB, cfg.L2Ways, cfg.L2Latency))
	t.AddRow("L3 cache", fmt.Sprintf("%d MB shared, %d-way, %d-cycle bank latency, %s replacement", cfg.LLCSizeKB>>10, cfg.LLCWays, cfg.LLCLatency, cfg.LLCPolicy))
	t.AddRow("Global NoC", fmt.Sprintf("%dx%d mesh, 512-bit links, X-Y routing, %d cycles/hop", cfg.NoC.Dim, cfg.NoC.Dim, cfg.NoC.HopLatency))
	t.AddRow("Coherence", "MESI-style invalidation over writable ranges, 64 B lines, in-LLC directory")
	t.AddRow("Memory", fmt.Sprintf("%d-channel DDR4-class, %.0f B/cycle aggregate, %d-cycle latency", cfg.DRAM.Channels, cfg.DRAM.BytesPerCycle, cfg.DRAM.AccessLatency))
	return o.render(t, w)
}

// expTable2 generates each dataset preset at the requested scale and
// prints its measured statistics alongside the paper's full-scale values.
func expTable2(w io.Writer, o Options) error {
	o = o.withDefaults()
	t := &Table{
		Title: "Table 2 — dataset statistics (generated at scale, paper values for reference)",
		Header: []string{"dataset", "|V|", "|E|", "d", "avg deg",
			"paper |V|", "paper |E|", "paper d", "paper deg"},
	}
	for _, name := range o.datasets(allDatasets...) {
		p, err := gen.PresetByName(name)
		if err != nil {
			return err
		}
		edges, nv := p.Generate(o.Scale)
		st := graph.NewStoreFromEdges(nv, edges).Seal().ComputeStats()
		t.AddRow(name,
			fmt.Sprint(st.Vertices), fmt.Sprint(st.Edges), fmt.Sprint(st.Diameter), f2(st.AvgDegree),
			fmt.Sprint(p.PaperVertices), fmt.Sprint(p.PaperEdges), fmt.Sprint(p.PaperDiameter), f2(p.PaperAvgDegree))
	}
	t.Comment = "generated graphs preserve degree/diameter shape at reduced scale (DESIGN.md substitutions)"
	return o.render(t, w)
}

// expFig14 runs the native (real-machine) comparison on native.Session:
// one deletion-rich batch, applied from the same converged states in
// Ligra-o's frontier rounds (ApplyBatchRounds) and in the software
// topology-driven worklist order without coalescing (ApplyBatch). Store,
// repair and dependency forest are shared, so the arms differ only in
// propagation order. Sessions are built untimed; the arms alternate.
func expFig14(w io.Writer, o Options) error {
	o = o.withDefaults()
	// Deletion-rich batches produce the deep reset-region recomputation
	// that the topology-driven ordering pays off on (see EXPERIMENTS.md).
	spec := o.spec("FR", "sssp", "Ligra-o")
	spec.AddFraction = 0.4
	spec.BatchDivisor = 10
	p, err := Prepare(spec)
	if err != nil {
		return err
	}
	want := algo.Reference(p.Algo, p.NewG)
	arms := make([]struct {
		wall          []time.Duration
		visits, edges uint64
	}, len(native.Orders))
	const reps = 11
	for rep := -1; rep < reps; rep++ { // rep -1 warms both arms
		for k := range arms {
			i := (rep + 1 + k) % len(arms)
			a, ord := &arms[i], native.Orders[i]
			sess := native.NewSession(p.Algo, graph.NewStoreFromSnapshot(p.OldG), native.Config{})
			runtime.GC() // the last reps' sessions are not collected inside the timed region
			start := time.Now()
			ord.Apply(sess, p.Batch)
			d := time.Since(start)
			if v := algo.StatesEqual(sess.StatesCopy(), want, 0); v >= 0 {
				return fmt.Errorf("fig14: %s state of vertex %d differs from the oracle", ord.Name, v)
			}
			if m := sess.Metrics(); rep >= 0 {
				a.wall = append(a.wall, d)
				a.visits, a.edges = a.visits+m.Get(stats.CtrPropagationVisits), a.edges+m.Get(stats.CtrEdgesProcessed)
			}
			sess.Close()
		}
	}
	t := &Table{
		Title:  "Fig 14 — native wall-clock over FR (SSSP), native.Session",
		Header: []string{"scheme", "wall p50 ms", "p25–p75 ms", "speedup vs Ligra-o", "visits/update", "edges/update"},
	}
	updates := float64(reps * len(p.Batch))
	ms := func(d time.Duration) string { return f2(float64(d) / 1e6) }
	var base time.Duration
	for i, a := range arms {
		slices.Sort(a.wall)
		p50 := a.wall[reps/2]
		if base == 0 {
			base = p50
		}
		t.AddRow(native.Orders[i].Name, ms(p50), ms(a.wall[reps/4])+"–"+ms(a.wall[3*reps/4]),
			f2(float64(base)/float64(p50)), f2(float64(a.visits)/updates), f2(float64(a.edges)/updates))
	}
	t.Comment = fmt.Sprintf("%d reps per arm, alternating; %d updates per batch; paper: TDGraph-S-without outperforms Ligra-o on a real 64-core Xeon Phi", reps, len(p.Batch))
	return o.render(t, w)
}

// expFig15 compares TDGraph-H with the four accelerator baselines:
// speedups over HATS plus Perf/Watt normalised to HATS.
func expFig15(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"HATS", "Minnow", "PHI", "DepGraph", "TDGraph-H"}
	t := &Table{
		Title:  "Fig 15 — speedup over HATS and Perf/Watt (normalised to HATS)",
		Header: []string{"algo", "dataset", "scheme", "speedup", "perf/W"},
	}
	for _, alg := range o.algos(allAlgos...) {
		for _, ds := range o.datasets(allDatasets...) {
			rs, err := o.runSchemes(ds, alg, schemes)
			if err != nil {
				return err
			}
			base := rs["HATS"]
			basePW := energy.NewModel("HATS").PerfPerWatt(base.Collector, base.Cycles)
			for _, s := range schemes {
				r := rs[s]
				pw := energy.NewModel(s).PerfPerWatt(r.Collector, r.Cycles)
				t.AddRow(alg, ds, s, f2(base.Cycles/r.Cycles), f2(pw/basePW))
			}
		}
	}
	t.Comment = "paper: TDGraph-H 4.6~12.7x HATS, 3.2~8.6x Minnow, 3.8~9.7x PHI, 2.3~6.1x DepGraph"
	return o.render(t, w)
}

// expFig16 compares off-chip transfer volume over FR.
func expFig16(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"JetStream", "GraphPulse", "TDGraph-H"}
	alg := o.algos("sssp")[0]
	t := &Table{
		Title:  fmt.Sprintf("Fig 16 — off-chip memory transfer volume over FR (%s), normalised to TDGraph-H", alg),
		Header: []string{"scheme", "DRAM bytes", "normalised", "useless prefetches"},
	}
	rs, err := o.runSchemes("FR", alg, schemes)
	if err != nil {
		return err
	}
	base := float64(rs["TDGraph-H"].DRAMBytes)
	for _, s := range schemes {
		r := rs[s]
		t.AddRow(s, fmtBytes(r.DRAMBytes), f2(float64(r.DRAMBytes)/base),
			fmt.Sprint(r.Collector.Get(stats.CtrPrefetchUseless)))
	}
	t.Comment = "paper: JetStream prefetches more useless data; GraphPulse needs many more accesses"
	return o.render(t, w)
}

// expFig17 compares JetStream / JetStream-with / TDGraph-H execution time.
func expFig17(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"JetStream", "JetStream-with", "TDGraph-H"}
	alg := o.algos("sssp")[0]
	t := &Table{
		Title:  fmt.Sprintf("Fig 17 — execution time over FR (%s), normalised to JetStream", alg),
		Header: []string{"scheme", "normalised time", "speedup vs JetStream"},
	}
	rs, err := o.runSchemes("FR", alg, schemes)
	if err != nil {
		return err
	}
	base := rs["JetStream"].Cycles
	for _, s := range schemes {
		t.AddRow(s, f3(rs[s].Cycles/base), f2(base/rs[s].Cycles))
	}
	t.Comment = "paper: TDGraph-H outperforms both JetStream variants"
	return o.render(t, w)
}

// expFig18 compares GRASP-based protection with VSCU coalescing.
func expFig18(w io.Writer, o Options) error {
	o = o.withDefaults()
	t := &Table{
		Title:  "Fig 18 — GRASP comparison over FR (SSSP), normalised to Ligra-o+GRASP",
		Header: []string{"scheme", "normalised time"},
	}
	// GRASP alone: the software baseline with a GRASP LLC.
	graspSpec := o.spec("FR", "sssp", "Ligra-o")
	graspSpec.LLCPolicy = "grasp"
	grasp, err := Run(graspSpec)
	if err != nil {
		return err
	}
	tdGrasp, err := Run(o.spec("FR", "sssp", "TDGraph-H-GRASP"))
	if err != nil {
		return err
	}
	td, err := Run(o.spec("FR", "sssp", "TDGraph-H"))
	if err != nil {
		return err
	}
	base := grasp.Cycles
	t.AddRow("GRASP", f3(1.0))
	t.AddRow("TDGraph-H-GRASP", f3(tdGrasp.Cycles/base))
	t.AddRow("TDGraph-H", f3(td.Cycles/base))
	t.Comment = "paper: TDGraph-H outperforms GRASP; TDTU+GRASP sits between"
	return o.render(t, w)
}

// expFig19 prints the energy breakdown over FR normalised to HATS.
func expFig19(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"HATS", "Minnow", "PHI", "DepGraph", "TDGraph-H"}
	t := &Table{
		Title:  "Fig 19 — energy breakdown over FR (SSSP), normalised to HATS total",
		Header: []string{"scheme", "core", "cache", "noc", "dram", "accel", "total"},
	}
	rs, err := o.runSchemes("FR", "sssp", schemes)
	if err != nil {
		return err
	}
	baseR := rs["HATS"]
	baseE := energy.NewModel("HATS").Evaluate(baseR.Collector, baseR.Cycles).Total()
	for _, s := range schemes {
		r := rs[s]
		b := energy.NewModel(s).Evaluate(r.Collector, r.Cycles)
		t.AddRow(s, f3(b.Core/baseE), f3(b.Cache/baseE), f3(b.NoC/baseE),
			f3(b.DRAM/baseE), f3(b.Accel/baseE), f3(b.Total()/baseE))
	}
	t.Comment = "paper: TDGraph-H needs much less energy (fewer updates, less traffic)"
	return o.render(t, w)
}

// expFig20 sweeps memory bandwidth.
func expFig20(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"Ligra-o", "DepGraph", "TDGraph-H"}
	scales := []float64{0.5, 1, 2, 4}
	t := &Table{
		Title:  "Fig 20 — sensitivity to memory bandwidth (SSSP over FR), cycles normalised to 1x Ligra-o",
		Header: []string{"bandwidth", "Ligra-o", "DepGraph", "TDGraph-H"},
	}
	var base float64
	for _, bw := range scales {
		row := []string{fmt.Sprintf("%gx", bw)}
		for _, s := range schemes {
			spec := o.spec("FR", "sssp", s)
			spec.BandwidthScale = bw
			r, err := Run(spec)
			if err != nil {
				return err
			}
			if s == "Ligra-o" && bw == 1 {
				base = r.Cycles
			}
			row = append(row, fmt.Sprintf("%.0f", r.Cycles))
		}
		t.AddRow(row...)
	}
	t.Comment = fmt.Sprintf("1x Ligra-o baseline cycles: %.0f; paper: TDGraph-H wins at every bandwidth", base)
	return o.render(t, w)
}

// expFig21 sweeps the TDTU stack depth.
func expFig21(w io.Writer, o Options) error {
	o = o.withDefaults()
	depths := []int{2, 4, 6, 8, 10, 16, 32, 64}
	t := &Table{
		Title:  "Fig 21 — sensitivity to stack depth (SSSP over FR), cycles normalised to depth 10",
		Header: []string{"depth", "cycles", "normalised"},
	}
	results := make(map[int]*Result, len(depths))
	for _, d := range depths {
		spec := o.spec("FR", "sssp", "TDGraph-H")
		spec.StackDepth = d
		r, err := Run(spec)
		if err != nil {
			return err
		}
		results[d] = r
	}
	base := results[10].Cycles
	for _, d := range depths {
		t.AddRow(fmt.Sprint(d), fmt.Sprintf("%.0f", results[d].Cycles), f3(results[d].Cycles/base))
	}
	t.Comment = "paper: performance saturates beyond depth 10"
	return o.render(t, w)
}

// expFig22 sweeps alpha.
func expFig22(w io.Writer, o Options) error {
	o = o.withDefaults()
	alphas := []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.02, 0.05}
	t := &Table{
		Title:  "Fig 22 — sensitivity to alpha (SSSP over FR), cycles normalised to alpha=0.5%",
		Header: []string{"alpha", "cycles", "normalised"},
	}
	results := make(map[float64]*Result, len(alphas))
	for _, a := range alphas {
		spec := o.spec("FR", "sssp", "TDGraph-H")
		spec.Alpha = a
		r, err := Run(spec)
		if err != nil {
			return err
		}
		results[a] = r
	}
	base := results[0.005].Cycles
	for _, a := range alphas {
		t.AddRow(fmt.Sprintf("%.2f%%", a*100), fmt.Sprintf("%.0f", results[a].Cycles), f3(results[a].Cycles/base))
	}
	t.Comment = "paper: alpha is a trade-off; 0.5% is the sweet spot"
	return o.render(t, w)
}

// expFig23 sweeps LLC size and replacement policy for TDGraph-H. The
// paper sweeps 16-128 MB against multi-gigabyte graphs; the scaled
// equivalents here are 256 KB-2 MB (same capacity:working-set ratios).
func expFig23(w io.Writer, o Options) error {
	o = o.withDefaults()
	sizesKB := []int{256, 512, 1024, 2048}
	policies := []string{"lru", "drrip", "popt", "grasp"}
	t := &Table{
		Title:  "Fig 23 — impact of LLC size and policy on TDGraph-H (SSSP over FR), cycles (scaled: 256KB~2MB stand in for the paper's 16~128MB)",
		Header: append([]string{"LLC KB"}, policies...),
	}
	for _, size := range sizesKB {
		row := []string{fmt.Sprint(size)}
		for _, pol := range policies {
			spec := o.spec("FR", "sssp", "TDGraph-H")
			spec.LLCSizeKB = size
			spec.LLCPolicy = pol
			r, err := Run(spec)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.0f", r.Cycles))
		}
		t.AddRow(row...)
	}
	t.Comment = "paper: GRASP protects the coalesced hot states best"
	return o.render(t, w)
}

// expFig24a sweeps batch size.
func expFig24a(w io.Writer, o Options) error {
	o = o.withDefaults()
	sizes := []int{250, 500, 1000, 2000, 4000, 8000}
	t := &Table{
		Title:  "Fig 24(a) — impact of batch size (SSSP over FR), cycles per update",
		Header: []string{"batch", "Ligra-o cyc/upd", "TDGraph-H cyc/upd", "speedup"},
	}
	for _, size := range sizes {
		specL := o.spec("FR", "sssp", "Ligra-o")
		specL.BatchSize = size
		rl, err := Run(specL)
		if err != nil {
			return err
		}
		specT := o.spec("FR", "sssp", "TDGraph-H")
		specT.BatchSize = size
		rt, err := Run(specT)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprint(size),
			fmt.Sprintf("%.1f", rl.Cycles/float64(size)),
			fmt.Sprintf("%.1f", rt.Cycles/float64(size)),
			f2(rl.Cycles/rt.Cycles))
	}
	t.Comment = "paper: TDGraph-H's advantage grows with batch size (more propagations to merge)"
	return o.render(t, w)
}

// expFig24b sweeps the addition:deletion composition.
func expFig24b(w io.Writer, o Options) error {
	o = o.withDefaults()
	fracs := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
	t := &Table{
		Title:  "Fig 24(b) — impact of batch composition (SSSP over FR)",
		Header: []string{"additions", "Ligra-o cycles", "TDGraph-H cycles", "speedup"},
	}
	for _, f := range fracs {
		specL := o.spec("FR", "sssp", "Ligra-o")
		specL.AddFraction = f
		rl, err := Run(specL)
		if err != nil {
			return err
		}
		specT := o.spec("FR", "sssp", "TDGraph-H")
		specT.AddFraction = f
		rt, err := Run(specT)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%.0f%%", f*100),
			fmt.Sprintf("%.0f", rl.Cycles), fmt.Sprintf("%.0f", rt.Cycles),
			f2(rl.Cycles/rt.Cycles))
	}
	t.Comment = "paper: TDGraph-H wins under every composition"
	return o.render(t, w)
}

// expTable3 prints the accelerator power/area table.
func expTable3(w io.Writer, o Options) error {
	t := &Table{
		Title:  "Table 3 — power and area of the accelerators (paper RTL synthesis constants)",
		Header: []string{"accelerator", "power mW", "% TDP", "area mm^2", "% core"},
	}
	for _, e := range energy.Table3() {
		t.AddRow(e.Name, fmt.Sprintf("%.0f", e.PowerMW), fmt.Sprintf("%.2f%%", e.PercentTDP),
			fmt.Sprintf("%.3f", e.AreaMM2), fmt.Sprintf("%.2f%%", e.PercentCore))
	}
	t.Comment = fmt.Sprintf("TDGraph on-chip storage: %d-bit Fetched Buffer + %d-bit stack", energy.FetchedBufferBits, energy.StackBits)
	return o.render(t, w)
}
