package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// This file measures the harness itself: how fast the simulator's
// execution backends run the Fig 10 SSSP workload on the host, and that
// the phase-merged backend's results do not depend on the worker count.
// The output is BENCH_sim.json (written by cmd/tdgraph-bench -simjson or
// the "benchsim" experiment).

// HostParRun is one measured backend configuration.
type HostParRun struct {
	Mode    string  `json:"mode"`    // "inline" or "phase-merged"
	HostPar int     `json:"hostpar"` // sim.Config.HostParallelism
	WallMS  float64 `json:"wall_ms"` // best-of-Repeats harness wall-clock
	Cycles  float64 `json:"cycles"`  // simulated time (must match across N >= 1)
	DRAM    uint64  `json:"dram_bytes"`
}

// HostParReport is the BENCH_sim.json document.
type HostParReport struct {
	Experiment string  `json:"experiment"`
	Dataset    string  `json:"dataset"`
	Algo       string  `json:"algo"`
	Scheme     string  `json:"scheme"`
	ScalePct   float64 `json:"dataset_scale"`
	Cores      int     `json:"simulated_cores"`

	HostCPUs      int `json:"host_num_cpu"`
	HostMaxProcs  int `json:"host_gomaxprocs"`
	RepeatsPerRun int `json:"repeats_per_run"`

	Runs []HostParRun `json:"runs"`

	// SpeedupParallelVsSerial is hostpar=8 vs hostpar=1 wall-clock —
	// what host-goroutine fan-out buys on this machine.
	SpeedupParallelVsSerial float64 `json:"speedup_hostpar8_vs_hostpar1"`
	// SpeedupVsInline is hostpar=8 vs the classic inline backend — the
	// total harness win of the refactor (sharded tables + batched
	// phase-merged replay + host parallelism).
	SpeedupVsInline float64 `json:"speedup_hostpar8_vs_inline"`
	// Deterministic records that every phase-merged run (any N >= 1)
	// produced identical cycles and DRAM bytes.
	Deterministic bool `json:"parallel_runs_bit_identical"`
}

// RunHostParReport measures the Fig 10 SSSP cell (TDGraph-H on the FR
// preset) under the inline backend and the phase-merged backend at
// hostpar 1, 2, 4, and 8, timing the full scheme execution (engine +
// simulator) per backend and cross-checking determinism.
func RunHostParReport(o Options) (*HostParReport, error) {
	o = o.withDefaults()
	repeats := 3
	rep := &HostParReport{
		Experiment:    "benchsim: harness wall-clock by execution backend",
		Dataset:       "FR",
		Algo:          "sssp",
		Scheme:        "TDGraph-H",
		ScalePct:      o.Scale,
		Cores:         o.Cores,
		HostCPUs:      runtime.NumCPU(),
		HostMaxProcs:  runtime.GOMAXPROCS(0),
		RepeatsPerRun: repeats,
		Deterministic: true,
	}
	base := o.spec(rep.Dataset, rep.Algo, rep.Scheme)
	// Warm the prepared-case cache so the first timed run is not charged
	// for graph generation and warmup convergence.
	if _, err := Prepare(base); err != nil {
		return nil, err
	}

	measure := func(hostPar int) (HostParRun, error) {
		s := base
		s.HostParallelism = hostPar
		mode := "inline"
		if hostPar >= 1 {
			mode = "phase-merged"
		}
		run := HostParRun{Mode: mode, HostPar: hostPar}
		for i := 0; i < repeats; i++ {
			r, err := Run(s)
			if err != nil {
				return run, err
			}
			ms := float64(r.Wall) / float64(time.Millisecond)
			if run.WallMS == 0 || ms < run.WallMS {
				run.WallMS = ms
			}
			run.Cycles = r.Cycles
			run.DRAM = r.DRAMBytes
		}
		return run, nil
	}

	for _, hp := range []int{0, 1, 2, 4, 8} {
		run, err := measure(hp)
		if err != nil {
			return nil, err
		}
		rep.Runs = append(rep.Runs, run)
	}

	var serial, par8, inline *HostParRun
	for i := range rep.Runs {
		r := &rep.Runs[i]
		switch r.HostPar {
		case 0:
			inline = r
		case 1:
			serial = r
		case 8:
			par8 = r
		}
		if r.HostPar >= 1 && (r.Cycles != serial.Cycles || r.DRAM != serial.DRAM) {
			rep.Deterministic = false
		}
	}
	if par8.WallMS > 0 {
		rep.SpeedupParallelVsSerial = serial.WallMS / par8.WallMS
		rep.SpeedupVsInline = inline.WallMS / par8.WallMS
	}
	return rep, nil
}

// WriteJSON renders the report as indented JSON.
func (r *HostParReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func expBenchSim(w io.Writer, o Options) error {
	rep, err := RunHostParReport(o)
	if err != nil {
		return err
	}
	t := &Table{
		Title:  "Harness self-timing: machine execution backends (Fig 10 SSSP cell)",
		Header: []string{"backend", "hostpar", "wall ms", "sim cycles", "DRAM bytes"},
		Comment: fmt.Sprintf(
			"host CPUs %d, GOMAXPROCS %d; hostpar8 vs hostpar1 %.2fx, vs inline %.2fx, phase-merged runs bit-identical: %v",
			rep.HostCPUs, rep.HostMaxProcs, rep.SpeedupParallelVsSerial, rep.SpeedupVsInline, rep.Deterministic),
	}
	for _, r := range rep.Runs {
		t.AddRow(r.Mode, fmt.Sprintf("%d", r.HostPar), fmt.Sprintf("%.3f", r.WallMS),
			fmt.Sprintf("%.0f", r.Cycles), fmt.Sprintf("%d", r.DRAM))
	}
	return o.render(t, w)
}

func init() {
	register("benchsim", "Harness self-timing: inline vs phase-merged machine backends (BENCH_sim.json)", expBenchSim)
}
