// Package bench is the experiment harness: one driver that prepares a
// streaming case (dataset preset → warmup fixpoint → applied batch),
// instantiates any scheme on a configured simulated machine, runs it, and
// collects the paper's metrics — plus one experiment definition per table
// and figure of the evaluation section (see experiments.go and the
// per-experiment index in DESIGN.md).
package bench

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"github.com/tdgraph/tdgraph/internal/accel"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/core"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
)

// Spec describes one measurement cell.
type Spec struct {
	Dataset string  // preset code (AZ, DL, GL, LJ, OR, FR)
	Scale   float64 // dataset scale factor (1.0 = preset default size)
	Algo    string  // sssp | cc | pagerank | adsorption
	Scheme  string  // scheme name, see NewSystem

	// BatchSize is the number of updates in the measured batch; 0
	// derives edge-count/BatchDivisor (see below).
	BatchSize int
	// BatchDivisor sets the derived batch size as a fraction of the
	// edge list (default 20, i.e. 5% — comparable to the paper's 100K
	// batches relative to its mid-size graphs).
	BatchDivisor int
	AddFraction  float64 // default 0.75

	Cores int // default 64 (Table 1)

	// Machine knobs (Figs 20/23).
	LLCSizeMB      int
	LLCSizeKB      int // sub-MiB override for the scaled Fig 23 sweep
	LLCPolicy      string
	BandwidthScale float64

	// TDGraph knobs (Figs 21/22).
	StackDepth int
	Alpha      float64

	Seed int64

	// Faults is a fault-injection spec ("class[:param],..." — see
	// fault.Parse) applied to the measured batch, seeded by Seed so every
	// injection run is reproducible. Empty disables injection.
	Faults string
	// FaultPolicy selects the ingestion validation policy for the
	// (possibly mutated) batch: none|reject|clamp|quarantine. When
	// Faults is set and FaultPolicy is empty, clamp is used so injected
	// garbage cannot poison the measured cell.
	FaultPolicy string
}

func (s Spec) withDefaults() Spec {
	if s.Scale <= 0 {
		s.Scale = 0.25
	}
	if s.AddFraction == 0 {
		s.AddFraction = 0.75
	}
	if s.Cores <= 0 {
		s.Cores = 64
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Result is one measured cell.
type Result struct {
	Spec      Spec
	Scheme    string
	Cycles    float64
	Collector *stats.Collector
	Wall      time.Duration
	// Derived metrics.
	StateUpdates  uint64
	UselessRatio  float64 // (updates - useful) / updates
	UsefulFetched float64 // used state words / fetched state words
	DRAMBytes     uint64
	LLCMissRate   float64
	// PropagateCycles/OtherCycles split total core time for the
	// breakdown figures.
	PropagateCycles float64
	OtherCycles     float64
}

// prepared is the cached, scheme-independent part of a cell: every scheme
// measures the same batch against the same warm fixpoint.
type prepared struct {
	a     algo.Algorithm
	oldG  *graph.Snapshot
	newG  *graph.Snapshot
	warm  []float64
	res   graph.ApplyResult
	batch []graph.Update
}

var (
	prepMu    sync.Mutex
	prepCache = map[string]*prepared{}
)

func prepKey(s Spec) string {
	return fmt.Sprintf("%s|%g|%s|%d|%d|%g|%d|%s|%s", s.Dataset, s.Scale, s.Algo, s.BatchSize, s.BatchDivisor, s.AddFraction, s.Seed, s.Faults, s.FaultPolicy)
}

// Prepare builds (or fetches from cache) the streaming case for a spec.
func Prepare(s Spec) (*prepared, error) {
	s = s.withDefaults()
	key := prepKey(s)
	prepMu.Lock()
	defer prepMu.Unlock()
	if p, ok := prepCache[key]; ok {
		return p, nil
	}
	preset, err := gen.PresetByName(s.Dataset)
	if err != nil {
		return nil, err
	}
	edges, nv := preset.Generate(s.Scale)
	batchSize := s.BatchSize
	if batchSize <= 0 {
		div := s.BatchDivisor
		if div <= 0 {
			div = 20
		}
		batchSize = len(edges) / div
		if batchSize < 200 {
			batchSize = 200
		}
	}
	cfg := stream.Config{
		WarmupFraction: 0.5,
		BatchSize:      batchSize,
		AddFraction:    s.AddFraction,
		NumBatches:     1,
		Seed:           s.Seed,
	}
	if s.Faults != "" {
		inj, err := fault.Parse(s.Faults, s.Seed)
		if err != nil {
			return nil, err
		}
		cfg.Mutate = func(batch []graph.Update) []graph.Update {
			return inj.MutateBatch(batch, nv)
		}
	}
	w := stream.Build(edges, nv, cfg)
	if len(w.Batches) == 0 {
		return nil, fmt.Errorf("bench: dataset %s at scale %g produced no batch", s.Dataset, s.Scale)
	}
	batch := w.Batches[0]
	if s.Faults != "" || s.FaultPolicy != "" {
		pol, err := stream.ParsePolicy(s.FaultPolicy)
		if err != nil {
			return nil, err
		}
		if pol == stream.PolicyNone && s.Faults != "" {
			// Injected garbage must not reach the builder unchecked.
			pol = stream.PolicyClamp
		}
		batch, err = stream.NewValidator(pol, nv, nil).Sanitize(batch)
		if err != nil {
			return nil, err
		}
	}
	b := w.WarmupBuilder()
	oldG := b.Snapshot()
	a, err := enginetest.NewAlgorithm(s.Algo, nv, s.Seed)
	if err != nil {
		return nil, err
	}
	warm := algo.Reference(a, oldG)
	res := b.Apply(batch)
	newG := b.Snapshot()
	p := &prepared{a: a, oldG: oldG, newG: newG, warm: warm, res: res, batch: batch}
	prepCache[key] = p
	return p, nil
}

// ClearCache drops all prepared cases (tests and long sweeps use it to
// bound memory).
func ClearCache() {
	prepMu.Lock()
	defer prepMu.Unlock()
	prepCache = map[string]*prepared{}
}

// machineFor builds the simulated machine for a spec: the scaled Table 1
// configuration (see sim.ScaledConfig) with the spec's overrides.
func machineFor(s Spec) *sim.Machine {
	cfg := sim.ScaledConfig()
	cfg.Cores = s.Cores
	if s.LLCSizeMB > 0 {
		cfg.LLCSizeMB = s.LLCSizeMB
	}
	if s.LLCSizeKB > 0 {
		cfg.LLCSizeKB = s.LLCSizeKB
	}
	if s.LLCPolicy != "" {
		cfg.LLCPolicy = s.LLCPolicy
	}
	if s.BandwidthScale > 0 {
		cfg.BandwidthScale = s.BandwidthScale
	}
	return sim.New(cfg)
}

// needsTDGraphLayout reports whether the scheme uses the Topology_List /
// Coalesced_States structures.
func needsTDGraphLayout(scheme string) bool {
	switch scheme {
	case "TDGraph-H", "TDGraph-S", "TDGraph-H-without", "TDGraph-S-without",
		"TDGraph-H-GRASP", "TDGraph-nosync", "DepGraph":
		return true
	}
	return false
}

// NewSystem constructs a scheme over a runtime. Recognised names:
// Ligra-o, GraphBolt, KickStarter, DZiG, TDGraph-H, TDGraph-S,
// TDGraph-H-without, TDGraph-S-without, TDGraph-H-GRASP, TDGraph-nosync,
// HATS, Minnow, PHI, DepGraph, JetStream, JetStream-with, GraphPulse.
func NewSystem(scheme string, s Spec, rt *engine.Runtime) (engine.System, error) {
	tdCfg := func(hw, vscu bool) core.Config {
		c := core.DefaultConfig()
		c.Hardware = hw
		c.EnableVSCU = vscu
		if s.StackDepth > 0 {
			c.StackDepth = s.StackDepth
		}
		if s.Alpha > 0 {
			c.Alpha = s.Alpha
		}
		return c
	}
	switch scheme {
	case "Ligra-o":
		return engine.NewBaseline(engine.LigraO(), rt), nil
	case "GraphBolt":
		return engine.NewBaseline(engine.GraphBolt(), rt), nil
	case "KickStarter":
		return engine.NewBaseline(engine.KickStarter(), rt), nil
	case "DZiG":
		return engine.NewBaseline(engine.DZiG(), rt), nil
	case "TDGraph-H":
		return core.New(tdCfg(true, true), rt), nil
	case "TDGraph-S":
		return core.New(tdCfg(false, true), rt), nil
	case "TDGraph-H-without":
		return core.New(tdCfg(true, false), rt), nil
	case "TDGraph-S-without":
		return core.New(tdCfg(false, false), rt), nil
	case "TDGraph-H-GRASP":
		// TDTU plus GRASP cache protection instead of VSCU (Fig 18):
		// the machine's LLC policy is set by the caller via LLCPolicy.
		return core.New(tdCfg(true, false), rt), nil
	case "TDGraph-nosync":
		cfg := tdCfg(true, true)
		cfg.DisableSync = true
		return core.New(cfg, rt), nil
	case "HATS":
		return accel.NewHATS(rt), nil
	case "Minnow":
		return accel.NewMinnow(rt), nil
	case "PHI":
		return accel.NewPHI(rt), nil
	case "DepGraph":
		return accel.NewDepGraph(rt), nil
	case "JetStream":
		return accel.NewJetStream(rt, false), nil
	case "JetStream-with":
		return accel.NewJetStream(rt, true), nil
	case "GraphPulse":
		return accel.NewGraphPulse(rt), nil
	default:
		return nil, fmt.Errorf("bench: unknown scheme %q", scheme)
	}
}

// build constructs the machine, runtime, and system for a spec without
// running it.
func build(s Spec, col *stats.Collector) (*engine.Runtime, engine.System, *sim.Machine, error) {
	s = s.withDefaults()
	if s.Scheme == "TDGraph-H-GRASP" && s.LLCPolicy == "" {
		s.LLCPolicy = "grasp"
	}
	p, err := Prepare(s)
	if err != nil {
		return nil, nil, nil, err
	}
	m := machineFor(s)
	alpha := s.Alpha
	if alpha <= 0 {
		alpha = 0.005
	}
	rt := engine.NewRuntime(p.a, p.oldG, p.newG, p.warm, engine.Options{
		Machine:   m,
		Cores:     s.Cores,
		Collector: col,
		Layout: engine.LayoutOptions{
			TDGraph:            needsTDGraphLayout(s.Scheme),
			Alpha:              alpha,
			MetaBytesPerVertex: metaBytes(s.Scheme),
		},
	})
	if s.Scheme == "TDGraph-H-GRASP" {
		// GRASP protects the hot vertex-state prefix (hub vertices sit
		// at low IDs in the R-MAT presets) in place of coalescing.
		hotBytes := uint64(float64(p.newG.NumVertices)*alpha) * engine.StateBytes
		m.MarkHot(sim.Region{Name: "grasp_hot_states", Base: rt.L.States.Base, Size: hotBytes + 64})
	}
	sys, err := NewSystem(s.Scheme, s, rt)
	if err != nil {
		return nil, nil, nil, err
	}
	return rt, sys, m, nil
}

// BuildForTest exposes build for the test suite.
func BuildForTest(s Spec, col *stats.Collector) (*engine.Runtime, engine.System, error) {
	rt, sys, _, err := build(s, col)
	return rt, sys, err
}

// PreparedResult returns the ApplyResult of the spec's prepared batch
// (test hook; Prepare caches, so this is cheap after build).
func PreparedResult(s Spec) graph.ApplyResult {
	p, err := Prepare(s.withDefaults())
	if err != nil {
		return graph.ApplyResult{}
	}
	return p.res
}

// Run measures one cell on the simulated machine.
func Run(s Spec) (*Result, error) {
	return RunCtx(context.Background(), s)
}

// processProtected drives the scheme with a recover boundary: a watchdog
// abort becomes a typed error (counted in the collector), and any other
// panic escaping an engine is converted to an error with its stack
// instead of taking the harness down.
func processProtected(sys engine.System, res graph.ApplyResult, col *stats.Collector) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if we, ok := p.(*sim.WatchdogError); ok {
			col.Inc(stats.CtrWatchdogTrips)
			err = fmt.Errorf("bench: %w", we)
			return
		}
		err = fmt.Errorf("bench: run panicked: %v\n%s", p, debug.Stack())
	}()
	sys.Process(res)
	return nil
}

// RunCtx measures one cell like Run, but arms the simulated machine with
// ctx as a watchdog: once ctx is done (deadline or cancellation) the run
// aborts with an error wrapping *sim.WatchdogError instead of hanging.
// A context without a Done channel (e.g. context.Background) leaves the
// watchdog disarmed, keeping the hot path identical to an unwatched run.
func RunCtx(ctx context.Context, s Spec) (*Result, error) {
	s = s.withDefaults()
	col := stats.NewCollector()
	_, sys, m, err := build(s, col)
	if err != nil {
		return nil, err
	}
	p, err := Prepare(s)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		m.SetWatchdog(ctx)
	}
	start := time.Now()
	if err := processProtected(sys, p.res, col); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	m.CollectInto(col)

	res := &Result{
		Spec:      s,
		Scheme:    s.Scheme,
		Cycles:    m.Time(),
		Collector: col,
		Wall:      wall,
	}
	res.StateUpdates = col.Get(stats.CtrStateUpdates)
	if useful := col.Get(stats.CtrUsefulUpdates); res.StateUpdates > useful {
		res.UselessRatio = float64(res.StateUpdates-useful) / float64(res.StateUpdates)
	}
	fetched, used := m.StateUsefulness()
	if fetched > 0 {
		res.UsefulFetched = float64(used) / float64(fetched)
	}
	res.DRAMBytes = m.DRAM().BytesMoved
	res.LLCMissRate = m.LLC().MissRate()
	res.PropagateCycles = float64(col.Get(stats.CtrCyclesPropagate))
	res.OtherCycles = float64(col.Get(stats.CtrCyclesOther))
	return res, nil
}

// metaBytes sizes the per-vertex engine metadata region for schemes that
// model dependency-history traffic.
func metaBytes(scheme string) int {
	switch scheme {
	case "GraphBolt", "DZiG":
		return 8
	}
	return 0
}

// VerifyResult checks a finished run against the oracle — used by the
// integration tests to guarantee every measured cell is also correct.
func VerifyResult(s Spec, sys engine.System) error {
	p, err := Prepare(s.withDefaults())
	if err != nil {
		return err
	}
	want := algo.Reference(p.a, p.newG)
	tol := 1e-9
	if p.a.Kind() == algo.Accumulative {
		tol = 1e-4
	}
	if i := algo.StatesEqual(sys.Runtime().S, want, tol); i >= 0 {
		return fmt.Errorf("bench: %s state mismatch at vertex %d", s.Scheme, i)
	}
	return nil
}
