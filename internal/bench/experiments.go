package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"
)

// Options configures an experiment invocation.
type Options struct {
	// Scale shrinks/grows the dataset presets (1.0 = preset default).
	Scale float64
	// Datasets restricts the dataset list (nil = the experiment's
	// default, usually all six presets).
	Datasets []string
	// Algos restricts the algorithm list (nil = experiment default).
	Algos []string
	// Cores overrides the simulated core count.
	Cores int
	// Seed seeds workload construction.
	Seed int64
	// CSV renders experiment tables as CSV instead of aligned text.
	CSV bool
	// Timeout bounds each cell's simulated run via the machine watchdog;
	// 0 leaves runs unbounded.
	Timeout time.Duration
}

// render writes a table in the selected output format.
func (o Options) render(t *Table, w io.Writer) error {
	if o.CSV {
		return t.WriteCSV(w)
	}
	return t.Write(w)
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Cores <= 0 {
		o.Cores = 64
	}
	return o
}

func (o Options) datasets(def ...string) []string {
	if len(o.Datasets) > 0 {
		return o.Datasets
	}
	return def
}

func (o Options) algos(def ...string) []string {
	if len(o.Algos) > 0 {
		return o.Algos
	}
	return def
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, o Options) error
}

var registry []Experiment

func register(id, title string, run func(w io.Writer, o Options) error) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// Experiments returns all registered experiments in registration order
// (paper order).
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// allDatasets is Table 2's order.
var allDatasets = []string{"AZ", "DL", "GL", "LJ", "OR", "FR"}

// allAlgos is the paper's benchmark order.
var allAlgos = []string{"pagerank", "adsorption", "sssp", "cc"}

// spec builds the base spec for an options/dataset/algo/scheme cell.
func (o Options) spec(dataset, algoName, scheme string) Spec {
	return Spec{
		Dataset: dataset,
		Scale:   o.Scale,
		Algo:    algoName,
		Scheme:  scheme,
		Cores:   o.Cores,
		Seed:    o.Seed,
	}
}

// run measures one spec under the options' watchdog timeout (if any).
func (o Options) run(s Spec) (*Result, error) {
	if o.Timeout <= 0 {
		return Run(s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), o.Timeout)
	defer cancel()
	return RunCtx(ctx, s)
}

// runSchemes measures the given schemes on one dataset/algo cell.
func (o Options) runSchemes(dataset, algoName string, schemes []string) (map[string]*Result, error) {
	out := make(map[string]*Result, len(schemes))
	for _, s := range schemes {
		r, err := o.run(o.spec(dataset, algoName, s))
		if err != nil {
			return nil, fmt.Errorf("%s/%s/%s: %w", dataset, algoName, s, err)
		}
		out[s] = r
	}
	return out, nil
}

func init() {
	register("table1", "Table 1: configuration of the simulated system", expTable1)
	register("table2", "Table 2: characteristic statistics of datasets", expTable2)
	register("fig3a", "Fig 3(a): execution-time breakdown of software systems (SSSP)", expFig3a)
	register("fig3b", "Fig 3(b): ratio of useless vertex state updates (SSSP)", expFig3b)
	register("fig3c", "Fig 3(c): ratio of useful fetched vertex state data (SSSP)", expFig3c)
	register("fig4a", "Fig 4(a): overlap of vertices visited by propagations", expFig4a)
	register("fig4b", "Fig 4(b): state-access share of the top-alpha vertices", expFig4b)
	register("fig10", "Fig 10: execution time of software schemes (normalised to Ligra-o)", expFig10)
	register("fig11", "Fig 11: vertex state updates (normalised to Ligra-o)", expFig11)
	register("fig12", "Fig 12: ratio of useful fetched vertex state data", expFig12)
	register("fig13", "Fig 13: VSCU ablation (TDGraph-H vs TDGraph-H-without)", expFig13)
	register("fig14", "Fig 14: real-platform (native Go) execution over FR", expFig14)
	register("fig15", "Fig 15: speedups and Perf/Watt vs hardware accelerators", expFig15)
	register("fig16", "Fig 16: off-chip memory transfer volume over FR", expFig16)
	register("fig17", "Fig 17: execution time of JetStream variants vs TDGraph-H over FR", expFig17)
	register("fig18", "Fig 18: GRASP comparison over FR", expFig18)
	register("fig19", "Fig 19: energy breakdown over FR", expFig19)
	register("fig20", "Fig 20: sensitivity to memory bandwidth (SSSP over FR)", expFig20)
	register("fig21", "Fig 21: sensitivity to TDTU stack depth (SSSP over FR)", expFig21)
	register("fig22", "Fig 22: sensitivity to alpha (SSSP over FR)", expFig22)
	register("fig23", "Fig 23: impact of LLC size and policy (SSSP over FR)", expFig23)
	register("fig24a", "Fig 24(a): impact of batch size (SSSP over FR)", expFig24a)
	register("fig24b", "Fig 24(b): impact of batch composition (SSSP over FR)", expFig24b)
	register("table3", "Table 3: power and area of the accelerators", expTable3)
}

// expFig3a reproduces the software-system breakdown: execution time of
// GraphBolt, KickStarter, DZiG, and Ligra-o normalised to GraphBolt,
// split into state-propagation time and other time.
func expFig3a(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"GraphBolt", "KickStarter", "DZiG", "Ligra-o"}
	t := &Table{
		Title:  "Fig 3(a) — execution time normalised to GraphBolt (SSSP)",
		Header: []string{"dataset", "scheme", "total", "propagation", "other"},
	}
	for _, ds := range o.datasets(allDatasets...) {
		rs, err := o.runSchemes(ds, "sssp", schemes)
		if err != nil {
			return err
		}
		base := rs["GraphBolt"].Cycles
		for _, s := range schemes {
			r := rs[s]
			frac := 0.0
			if r.PropagateCycles+r.OtherCycles > 0 {
				frac = r.PropagateCycles / (r.PropagateCycles + r.OtherCycles)
			}
			t.AddRow(ds, s, f3(r.Cycles/base), f3(r.Cycles/base*frac), f3(r.Cycles/base*(1-frac)))
		}
	}
	t.Comment = "paper: state propagation dominates (>93.7% for Ligra-o); Ligra-o fastest overall"
	return o.render(t, w)
}

func expFig3b(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"GraphBolt", "KickStarter", "DZiG", "Ligra-o"}
	t := &Table{
		Title:  "Fig 3(b) — ratio of useless vertex state updates (SSSP)",
		Header: append([]string{"dataset"}, schemes...),
	}
	for _, ds := range o.datasets(allDatasets...) {
		rs, err := o.runSchemes(ds, "sssp", schemes)
		if err != nil {
			return err
		}
		row := []string{ds}
		for _, s := range schemes {
			row = append(row, f3(rs[s].UselessRatio))
		}
		t.AddRow(row...)
	}
	t.Comment = "paper: >83.7% of Ligra-o's updates are useless"
	return o.render(t, w)
}

func expFig3c(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"GraphBolt", "KickStarter", "DZiG", "Ligra-o"}
	t := &Table{
		Title:  "Fig 3(c) — ratio of useful fetched vertex state data (SSSP)",
		Header: append([]string{"dataset"}, schemes...),
	}
	for _, ds := range o.datasets(allDatasets...) {
		rs, err := o.runSchemes(ds, "sssp", schemes)
		if err != nil {
			return err
		}
		row := []string{ds}
		for _, s := range schemes {
			row = append(row, f3(rs[s].UsefulFetched))
		}
		t.AddRow(row...)
	}
	t.Comment = "paper: <19.6% of fetched state data is useful for Ligra-o"
	return o.render(t, w)
}

// expFig10 reproduces the headline software comparison: Ligra-o,
// TDGraph-S, and TDGraph-H over all datasets and algorithms, with the
// propagation/other breakdown, normalised to Ligra-o.
func expFig10(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"Ligra-o", "TDGraph-S", "TDGraph-H"}
	t := &Table{
		Title:  "Fig 10 — execution time normalised to Ligra-o",
		Header: []string{"algo", "dataset", "scheme", "total", "propagation", "other", "speedup"},
	}
	for _, alg := range o.algos(allAlgos...) {
		for _, ds := range o.datasets(allDatasets...) {
			rs, err := o.runSchemes(ds, alg, schemes)
			if err != nil {
				return err
			}
			base := rs["Ligra-o"].Cycles
			for _, s := range schemes {
				r := rs[s]
				frac := 0.0
				if r.PropagateCycles+r.OtherCycles > 0 {
					frac = r.PropagateCycles / (r.PropagateCycles + r.OtherCycles)
				}
				t.AddRow(alg, ds, s, f3(r.Cycles/base), f3(r.Cycles/base*frac),
					f3(r.Cycles/base*(1-frac)), f2(base/r.Cycles))
			}
		}
	}
	t.Comment = "paper: TDGraph-H 7.1~21.4x over Ligra-o, 3.6~10.8x over TDGraph-S; TDGraph-S other-time 85.2~94.7%"
	return o.render(t, w)
}

func expFig11(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"Ligra-o", "TDGraph-S", "TDGraph-H"}
	t := &Table{
		Title:  "Fig 11 — vertex state updates normalised to Ligra-o",
		Header: []string{"algo", "dataset", "TDGraph-S", "TDGraph-H"},
	}
	for _, alg := range o.algos(allAlgos...) {
		for _, ds := range o.datasets(allDatasets...) {
			rs, err := o.runSchemes(ds, alg, schemes)
			if err != nil {
				return err
			}
			base := float64(rs["Ligra-o"].StateUpdates)
			t.AddRow(alg, ds,
				f3(float64(rs["TDGraph-S"].StateUpdates)/base),
				f3(float64(rs["TDGraph-H"].StateUpdates)/base))
		}
	}
	t.Comment = "paper: TDGraph-H performs only 7.8~22.1% of Ligra-o's updates"
	return o.render(t, w)
}

func expFig12(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"Ligra-o", "TDGraph-H"}
	t := &Table{
		Title:  "Fig 12 — ratio of useful fetched vertex state data",
		Header: []string{"algo", "dataset", "Ligra-o", "TDGraph-H"},
	}
	for _, alg := range o.algos(allAlgos...) {
		for _, ds := range o.datasets(allDatasets...) {
			rs, err := o.runSchemes(ds, alg, schemes)
			if err != nil {
				return err
			}
			t.AddRow(alg, ds, f3(rs["Ligra-o"].UsefulFetched), f3(rs["TDGraph-H"].UsefulFetched))
		}
	}
	t.Comment = "paper: TDGraph-H's fetched state data is mostly useful (coalesced hot states)"
	return o.render(t, w)
}

func expFig13(w io.Writer, o Options) error {
	o = o.withDefaults()
	schemes := []string{"Ligra-o", "TDGraph-H-without", "TDGraph-H"}
	t := &Table{
		Title:  "Fig 13 — VSCU ablation, execution time normalised to Ligra-o",
		Header: []string{"algo", "dataset", "TDGraph-H-without", "TDGraph-H", "VSCU gain"},
	}
	for _, alg := range o.algos(allAlgos...) {
		for _, ds := range o.datasets(allDatasets...) {
			rs, err := o.runSchemes(ds, alg, schemes)
			if err != nil {
				return err
			}
			base := rs["Ligra-o"].Cycles
			without := rs["TDGraph-H-without"].Cycles
			with := rs["TDGraph-H"].Cycles
			t.AddRow(alg, ds, f3(without/base), f3(with/base), f2(without/with))
		}
	}
	t.Comment = "paper: TDTU alone gives 5.3~10.8x over Ligra-o; VSCU adds another 1.5~1.9x"
	return o.render(t, w)
}

// expFig4a measures the observation behind the design: the share of
// visited vertices reached by more than one affected vertex's
// propagation.
func expFig4a(w io.Writer, o Options) error {
	o = o.withDefaults()
	t := &Table{
		Title:  "Fig 4(a) — overlap of propagation visit sets (SSSP, Ligra-o semantics)",
		Header: []string{"dataset", "visited", "shared", "share"},
	}
	for _, ds := range o.datasets(allDatasets...) {
		visited, shared, err := propagationOverlap(o.spec(ds, "sssp", "Ligra-o"))
		if err != nil {
			return err
		}
		ratio := 0.0
		if visited > 0 {
			ratio = float64(shared) / float64(visited)
		}
		t.AddRow(ds, fmt.Sprint(visited), fmt.Sprint(shared), f3(ratio))
	}
	t.Comment = "paper: intersection accounts for >73.3% of visited vertices"
	return o.render(t, w)
}

// expFig4b measures the access-frequency skew: share of state accesses
// going to the top-alpha most accessed vertices.
func expFig4b(w io.Writer, o Options) error {
	o = o.withDefaults()
	alphas := []float64{0.001, 0.005, 0.01, 0.02}
	header := []string{"dataset"}
	for _, a := range alphas {
		header = append(header, fmt.Sprintf("top %.1f%%", a*100))
	}
	t := &Table{Title: "Fig 4(b) — state-access share of top-alpha vertices (SSSP)", Header: header}
	for _, ds := range o.datasets(allDatasets...) {
		counts, err := accessCounts(o.spec(ds, "sssp", "Ligra-o"))
		if err != nil {
			return err
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
		var total uint64
		for _, c := range counts {
			total += uint64(c)
		}
		row := []string{ds}
		for _, a := range alphas {
			k := int(float64(len(counts)) * a)
			if k < 1 {
				k = 1
			}
			var top uint64
			for _, c := range counts[:k] {
				top += uint64(c)
			}
			share := 0.0
			if total > 0 {
				share = float64(top) / float64(total)
			}
			row = append(row, f3(share))
		}
		t.AddRow(row...)
	}
	t.Comment = "paper: >69.3% of accesses hit the top 0.5% of vertices"
	return o.render(t, w)
}
