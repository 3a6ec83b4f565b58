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
	Scheme  string  // scheme name, see the scheme table

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
	LLCSizeKB      int // default the scaled machine's 1024
	LLCPolicy      string
	BandwidthScale float64

	// TDGraph knobs (Figs 21/22).
	StackDepth int
	Alpha      float64

	Seed int64
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

var (
	prepMu    sync.Mutex
	prepCache = map[string]*enginetest.Case{}
)

func prepKey(s Spec) string {
	return fmt.Sprintf("%s|%g|%s|%d|%d|%g|%d", s.Dataset, s.Scale, s.Algo, s.BatchSize, s.BatchDivisor, s.AddFraction, s.Seed)
}

// Prepare builds (or fetches from cache) the streaming case for a spec:
// the scheme-independent part of a cell, so every scheme measures the
// same batch against the same warm fixpoint.
func Prepare(s Spec) (*enginetest.Case, error) {
	s = s.withDefaults()
	key := prepKey(s)
	prepMu.Lock()
	defer prepMu.Unlock()
	if c, ok := prepCache[key]; ok {
		return c, nil
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
	w := stream.Build(edges, nv, cfg)
	if len(w.Batches) == 0 {
		return nil, fmt.Errorf("bench: dataset %s at scale %g produced no batch", s.Dataset, s.Scale)
	}
	batch := w.Batches[0]
	st := graph.NewStoreFromEdges(w.NumVertices, w.Warmup)
	oldG := st.Seal()
	a, err := enginetest.NewAlgorithm(s.Algo, nv, s.Seed)
	if err != nil {
		return nil, err
	}
	warm := algo.Reference(a, oldG)
	res := st.Apply(batch)
	c := &enginetest.Case{Algo: a, OldG: oldG, NewG: st.Seal(), Warm: warm, Res: res, Batch: batch}
	prepCache[key] = c
	return c, nil
}

// ClearCache drops all prepared cases (tests and long sweeps use it to
// bound memory).
func ClearCache() {
	prepMu.Lock()
	defer prepMu.Unlock()
	prepCache = map[string]*enginetest.Case{}
}

// scheme is one row of the scheme table: the system constructor and
// what the runtime layout and machine must provide for it.
type scheme struct {
	system func(s Spec, rt *engine.Runtime) engine.System
	// tdLayout allocates the Topology_List / Coalesced_States structures.
	tdLayout bool
	// depMeta sizes the per-vertex engine metadata region of schemes
	// that model dependency-history traffic.
	depMeta int
	// grasp selects the GRASP LLC policy (unless the spec names one) and
	// protects the hot vertex-state prefix in place of coalescing (Fig 18).
	grasp bool
}

func baseline(p engine.Params) func(Spec, *engine.Runtime) engine.System {
	return func(_ Spec, rt *engine.Runtime) engine.System { return engine.NewBaseline(p, rt) }
}

func topologyDriven(hw, vscu, nosync bool) func(Spec, *engine.Runtime) engine.System {
	return func(s Spec, rt *engine.Runtime) engine.System {
		c := core.DefaultConfig()
		c.Hardware = hw
		c.EnableVSCU = vscu
		c.DisableSync = nosync
		if s.StackDepth > 0 {
			c.StackDepth = s.StackDepth
		}
		if s.Alpha > 0 {
			c.Alpha = s.Alpha
		}
		return core.New(c, rt)
	}
}

// schemes is the scheme table, keyed by the names a Spec accepts.
var schemes = map[string]scheme{
	"Ligra-o":           {system: baseline(engine.LigraO())},
	"GraphBolt":         {system: baseline(engine.GraphBolt()), depMeta: 8},
	"KickStarter":       {system: baseline(engine.KickStarter())},
	"DZiG":              {system: baseline(engine.DZiG()), depMeta: 8},
	"TDGraph-H":         {system: topologyDriven(true, true, false), tdLayout: true},
	"TDGraph-S":         {system: topologyDriven(false, true, false), tdLayout: true},
	"TDGraph-H-without": {system: topologyDriven(true, false, false), tdLayout: true},
	"TDGraph-S-without": {system: topologyDriven(false, false, false), tdLayout: true},
	// TDTU plus GRASP cache protection instead of VSCU.
	"TDGraph-H-GRASP": {system: topologyDriven(true, false, false), tdLayout: true, grasp: true},
	"TDGraph-nosync":  {system: topologyDriven(true, true, true), tdLayout: true},
	"HATS":            {system: func(_ Spec, rt *engine.Runtime) engine.System { return accel.NewHATS(rt) }},
	"Minnow":          {system: func(_ Spec, rt *engine.Runtime) engine.System { return accel.NewMinnow(rt) }},
	"PHI":             {system: func(_ Spec, rt *engine.Runtime) engine.System { return accel.NewPHI(rt) }},
	"DepGraph":        {system: func(_ Spec, rt *engine.Runtime) engine.System { return accel.NewDepGraph(rt) }, tdLayout: true},
	"JetStream":       {system: func(_ Spec, rt *engine.Runtime) engine.System { return accel.NewJetStream(rt, false) }},
	"JetStream-with":  {system: func(_ Spec, rt *engine.Runtime) engine.System { return accel.NewJetStream(rt, true) }},
	"GraphPulse":      {system: func(_ Spec, rt *engine.Runtime) engine.System { return accel.NewGraphPulse(rt) }},
}

func schemeFor(name string) (scheme, error) {
	sch, ok := schemes[name]
	if !ok {
		return scheme{}, fmt.Errorf("bench: unknown scheme %q", name)
	}
	return sch, nil
}

// Cell is one built measurement cell: the spec's simulated machine and
// the system over a runtime laid out for its scheme on a prepared case.
type Cell struct {
	Case *enginetest.Case
	M    *sim.Machine
	Sys  engine.System
	spec Spec
	col  *stats.Collector
}

// Build constructs the machine (the scaled Table 1 configuration, see
// sim.ScaledConfig, with the spec's overrides), the runtime layout and
// the system for spec over c without running it. A nil c means
// Prepare(spec).
func Build(s Spec, c *enginetest.Case) (*Cell, error) {
	s = s.withDefaults()
	sch, err := schemeFor(s.Scheme)
	if err != nil {
		return nil, err
	}
	if c == nil {
		if c, err = Prepare(s); err != nil {
			return nil, err
		}
	}
	cfg := sim.ScaledConfig()
	cfg.Cores = s.Cores
	if s.LLCSizeKB > 0 {
		cfg.LLCSizeKB = s.LLCSizeKB
	}
	if s.LLCPolicy != "" {
		cfg.LLCPolicy = s.LLCPolicy
	} else if sch.grasp {
		cfg.LLCPolicy = "grasp"
	}
	if s.BandwidthScale > 0 {
		cfg.BandwidthScale = s.BandwidthScale
	}
	m := sim.New(cfg)
	alpha := s.Alpha
	if alpha <= 0 {
		alpha = 0.005
	}
	col := stats.NewCollector()
	rt := c.NewRuntime(engine.Options{
		Machine:   m,
		Cores:     s.Cores,
		Collector: col,
		Layout: engine.LayoutOptions{
			TDGraph:            sch.tdLayout,
			Alpha:              alpha,
			MetaBytesPerVertex: sch.depMeta,
		},
	})
	if sch.grasp {
		// Hub vertices sit at low IDs in the R-MAT presets.
		hotBytes := uint64(float64(c.NewG.NumVertices)*alpha) * engine.StateBytes
		m.MarkHot(sim.Region{Name: "grasp_hot_states", Base: rt.L.States.Base, Size: hotBytes + 64})
	}
	return &Cell{Case: c, M: m, Sys: sch.system(s, rt), spec: s, col: col}, nil
}

// Run measures one cell on the simulated machine.
func Run(s Spec) (*Result, error) {
	return RunCtx(context.Background(), s)
}

// RunCtx measures one cell like Run, under ctx as the watchdog (see
// Cell.Run).
func RunCtx(ctx context.Context, s Spec) (*Result, error) {
	c, err := Build(s, nil)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx)
}

// Run processes the case's batch and collects the Result. It arms the
// machine with ctx as a watchdog: once ctx is done (deadline or
// cancellation) the run aborts with an error wrapping *sim.WatchdogError
// (counted in the collector) instead of hanging. A context without a
// Done channel (e.g. context.Background) leaves the watchdog disarmed,
// keeping the hot path identical to an unwatched run. Any other panic
// escaping an engine becomes an error with its stack instead of taking
// the harness down.
func (c *Cell) Run(ctx context.Context) (res *Result, err error) {
	if ctx != nil && ctx.Done() != nil {
		c.M.SetWatchdog(ctx)
	}
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if we, ok := p.(*sim.WatchdogError); ok {
			c.col.Inc(stats.CtrWatchdogTrips)
			res, err = nil, fmt.Errorf("bench: %w", we)
			return
		}
		res, err = nil, fmt.Errorf("bench: run panicked: %v\n%s", p, debug.Stack())
	}()
	start := time.Now()
	c.Sys.Process(c.Case.Res)
	wall := time.Since(start)
	m, col := c.M, c.col
	m.CollectInto(col)

	res = &Result{
		Spec:      c.spec,
		Scheme:    c.spec.Scheme,
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
