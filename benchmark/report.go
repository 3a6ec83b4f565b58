package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// workloadResult is one workload's two passes in one set.
type workloadResult struct {
	Workload string       `json:"workload"`
	EndToEnd *measurement `json:"end_to_end"` // the untraced pass
	PerLayer *measurement `json:"per_layer"`  // the traced pass + ladder
}

// resultFile is what a run (or -repeat N runs) saves, and what -input
// and -compare read back.
type resultFile struct {
	Host    hostShape          `json:"host"`
	Seed    int64              `json:"seed"`
	Seconds int                `json:"seconds"`
	Sets    [][]workloadResult `json:"sets"`
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func (rf *resultFile) write(path string) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// series collects one metric's value on one workload across the sets.
func (rf *resultFile) series(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, set := range rf.Sets {
		for _, wr := range set {
			m := wr.EndToEnd
			if traced {
				m = wr.PerLayer
			}
			if wr.Workload != workload || m == nil {
				continue
			}
			if v, ok := m.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// workloadNames lists the workloads a result file holds, in run order.
func (rf *resultFile) workloadNames() []string {
	var names []string
	seen := map[string]bool{}
	for _, set := range rf.Sets {
		for _, wr := range set {
			if !seen[wr.Workload] {
				seen[wr.Workload] = true
				names = append(names, wr.Workload)
			}
		}
	}
	return names
}

// render prints a result file as markdown: host shape, then one table
// of end-to-end and one of per-layer metrics per workload, each row the
// median and quartiles across the file's sets.
func (rf *resultFile) render(w io.Writer) {
	h := rf.Host
	fmt.Fprintf(w, "# tdgraph serving benchmark — seed %d, %d s per workload, %d set(s)\n\n", rf.Seed, rf.Seconds, len(rf.Sets))
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d go=%s fs=%s fsync_us_p50=%.1f\n\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.FSType, h.FsyncUsP50)
	for _, name := range rf.workloadNames() {
		fmt.Fprintf(w, "## %s\n\n", name)
		for _, set := range rf.Sets {
			for _, wr := range set {
				if wr.Workload != name || wr.EndToEnd == nil {
					continue
				}
				e := wr.EndToEnd
				fmt.Fprintf(w, "- digest %s, %d timed batches, tail %s, correct=%v, noisy=%v", e.Digest, e.Timed, e.Tail, e.Correct, e.Noisy)
				if e.Mismatch != "" {
					fmt.Fprintf(w, " — %s", e.Mismatch)
				}
				fmt.Fprintln(w)
			}
		}
		fmt.Fprintln(w)
		rf.table(w, name, "end to end (untraced pass)", endToEnd, false)
		rf.table(w, name, "per layer (traced pass and ladder)", perLayer, true)
	}
}

func (rf *resultFile) table(w io.Writer, workload, title string, defs []metricDef, traced bool) {
	fmt.Fprintf(w, "| %s | unit | median | q1 | q3 | bound |\n|---|---|---|---|---|---|\n", title)
	for _, d := range defs {
		xs := rf.series(workload, d.Name, traced)
		if len(xs) == 0 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		bound := ""
		switch {
		case d.Gated:
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		case d.Bound > 0:
			bound = fmt.Sprintf("%.0f%% (advisory)", d.Bound*100)
		}
		fmt.Fprintf(w, "| %s | %s | %.6g | %.6g | %.6g | %s |\n", d.Name, d.Unit, q2, q1, q3, bound)
	}
	fmt.Fprintln(w)
}

// verdict is one row of a comparison.
type verdict struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Gated    bool    `json:"gated"` // false: advisory, does not decide the exit status
	Base     float64 `json:"base_median"`
	New      float64 `json:"new_median"`
	WorsePct float64 `json:"worse_pct"` // positive = the new side is worse
	Spread   float64 `json:"spread"`    // the wider of the two sides' IQR/median
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"` // ok | regressed | unresolved
}

// compare judges every bounded end-to-end metric on every workload of
// two result files under the metric's bound. A row whose run-to-run
// spread is wider than the bound is unresolved, not unchanged — unless
// every new run reads better than every base run. failed_share may not
// rise at all.
func compare(base, next *resultFile) []verdict {
	var out []verdict
	for _, name := range base.workloadNames() {
		for _, d := range endToEnd {
			a, b := base.series(name, d.Name, false), next.series(name, d.Name, false)
			if d.Bound == 0 || len(a) == 0 || len(b) == 0 {
				continue
			}
			v := verdict{Workload: name, Metric: d.Name, Unit: d.Unit, Gated: d.Gated, Base: median(a), New: median(b), Bound: d.Bound}
			v.Spread = math.Max(spread(a), spread(b))
			v.WorsePct = 100 * (v.New - v.Base) / v.Base
			allBetter := sorted(b)[len(b)-1] < sorted(a)[0]
			if d.Better == "higher" {
				v.WorsePct = -v.WorsePct
				allBetter = sorted(b)[0] > sorted(a)[len(a)-1]
			}
			switch {
			case v.Spread > d.Bound && !allBetter:
				v.Verdict = "unresolved"
			case v.WorsePct > 100*d.Bound:
				v.Verdict = "regressed"
			default:
				v.Verdict = "ok"
			}
			out = append(out, v)
		}
		a, b := base.series(name, "failed_share", false), next.series(name, "failed_share", false)
		if len(a) > 0 && len(b) > 0 {
			v := verdict{Workload: name, Metric: "failed_share", Unit: "ratio", Gated: true, Base: median(a), New: median(b), Verdict: "ok"}
			if v.New > v.Base {
				v.Verdict = "regressed"
			}
			out = append(out, v)
		}
	}
	return out
}

func renderVerdicts(w io.Writer, vs []verdict) {
	fmt.Fprintln(w, "| workload | metric | unit | base | new | worse by | spread | bound | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, v := range vs {
		note := ""
		if !v.Gated {
			note = " (advisory)"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %.6g | %.6g | %+.1f%% | %.1f%% | %.0f%% | %s%s |\n",
			v.Workload, v.Metric, v.Unit, v.Base, v.New, v.WorsePct, 100*v.Spread, 100*v.Bound, v.Verdict, note)
	}
}

// driverLine is the one JSON object the acceptance driver reads from
// the last line of standard output.
func driverLine(m *measurement, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{Value: m.Metrics[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": m.Correct, "attempted": m.Attempted, "failed": m.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers, strings and bools always marshal
	}
	return string(line)
}

// printMeasurement lists every metric of one pass by name with its
// unit, in table order.
func printMeasurement(w io.Writer, m *measurement, defs []metricDef) {
	fmt.Fprintf(w, "%s: digest %s, attempted %d, failed %d, timed %d, correct=%v, noisy=%v %s\n",
		m.Workload, m.Digest, m.Attempted, m.Failed, m.Timed, m.Correct, m.Noisy, m.Tail)
	if m.Mismatch != "" {
		fmt.Fprintf(w, "  correctness gate: %s\n", m.Mismatch)
	}
	for _, d := range defs {
		if v, ok := m.Metrics[d.Name]; ok {
			gate := ""
			switch {
			case d.Gated:
				gate = fmt.Sprintf("  (%s is better, bound %.0f%%)", d.Better, d.Bound*100)
			case d.Bound > 0:
				gate = fmt.Sprintf("  (%s is better, advisory bound %.0f%%)", d.Better, d.Bound*100)
			}
			fmt.Fprintf(w, "  %-34s %14.6g %s%s\n", d.Name, v, d.Unit, gate)
		}
	}
}
