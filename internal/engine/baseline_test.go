package engine_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

var allParams = []func() engine.Params{
	engine.LigraO, engine.GraphBolt, engine.KickStarter, engine.DZiG,
}

var allAlgos = []string{"sssp", "cc", "pagerank", "adsorption"}

// TestBaselineMatchesOracle checks every baseline × algorithm × several
// seeds against the full-recompute oracle, in native mode.
func TestBaselineMatchesOracle(t *testing.T) {
	for _, mk := range allParams {
		p := mk()
		for _, algoName := range allAlgos {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", p.Name, algoName, seed)
				t.Run(name, func(t *testing.T) {
					c, err := enginetest.Make(algoName, enginetest.DefaultConfig(seed))
					if err != nil {
						t.Fatal(err)
					}
					rt := c.NewRuntime(engine.Options{})
					sys := engine.NewBaseline(p, rt)
					sys.Process(c.Res)
					if err := c.Verify(sys); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestBaselineDeleteHeavy stresses the monotonic deletion path (tag /
// reset / re-gather) with deletion-dominated batches.
func TestBaselineDeleteHeavy(t *testing.T) {
	for _, algoName := range []string{"sssp", "cc"} {
		t.Run(algoName, func(t *testing.T) {
			cfg := enginetest.DefaultConfig(7)
			cfg.AddFraction = 0.1
			c, err := enginetest.Make(algoName, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys := engine.NewBaseline(engine.LigraO(), c.NewRuntime(engine.Options{}))
			sys.Process(c.Res)
			if err := c.Verify(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBaselineOnSimulatedMachine runs a small case on the full simulated
// machine and sanity-checks the machine-side metrics.
func TestBaselineOnSimulatedMachine(t *testing.T) {
	c, err := enginetest.Make("sssp", enginetest.Config{
		Vertices: 800, Degree: 5, BatchSize: 100, AddFraction: 0.7, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Cores = 8
	m := sim.New(cfg)
	col := stats.NewCollector()
	rt := c.NewRuntime(engine.Options{Machine: m, Collector: col})
	sys := engine.NewBaseline(engine.LigraO(), rt)
	sys.Process(c.Res)
	if err := c.Verify(sys); err != nil {
		t.Fatal(err)
	}
	m.CollectInto(col)
	if m.Time() <= 0 {
		t.Fatalf("machine time = %v, want > 0", m.Time())
	}
	if col.Get(stats.CtrStateUpdates) == 0 {
		t.Fatal("no state updates recorded")
	}
	if col.Get(stats.CtrL1Hits)+col.Get(stats.CtrL1Misses) == 0 {
		t.Fatal("no L1 accesses recorded")
	}
	fetched, used := m.StateUsefulness()
	if fetched == 0 {
		t.Fatal("no tracked state fetches recorded")
	}
	if used > fetched {
		t.Fatalf("used words %d > fetched words %d", used, fetched)
	}
}

// TestBaselineNoUpdatesOnEmptyBatch ensures an empty batch leaves states
// untouched and performs no propagation work.
func TestBaselineNoUpdatesOnEmptyBatch(t *testing.T) {
	c, err := enginetest.Make("sssp", enginetest.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// Re-make a runtime on the *old* snapshot with an empty result.
	col := stats.NewCollector()
	rt := engine.NewRuntime(c.Algo, c.OldG, c.OldG, c.Warm, engine.Options{Collector: col})
	sys := engine.NewBaseline(engine.LigraO(), rt)
	sys.Process(graph.ApplyResult{})
	if got := col.Get(stats.CtrStateUpdates); got != 0 {
		t.Fatalf("empty batch performed %d state updates", got)
	}
	if i := algo.StatesEqual(rt.S, c.Warm, 0); i >= 0 {
		t.Fatalf("empty batch changed state of vertex %d", i)
	}
}

// TestUselessUpdateMetric checks the useless-update accounting: total
// updates minus useful updates must be non-negative and the counters must
// be populated for a non-trivial batch.
func TestUselessUpdateMetric(t *testing.T) {
	c, err := enginetest.Make("sssp", enginetest.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	col := stats.NewCollector()
	rt := c.NewRuntime(engine.Options{Collector: col})
	sys := engine.NewBaseline(engine.LigraO(), rt)
	sys.Process(c.Res)
	total := col.Get(stats.CtrStateUpdates)
	useful := col.Get(stats.CtrUsefulUpdates)
	if useful > total {
		t.Fatalf("useful updates %d > total updates %d", useful, total)
	}
	if total == 0 {
		t.Fatal("expected some state updates")
	}
}

// TestEngineDeterminism runs the same case twice and requires identical
// states and identical counter values.
func TestEngineDeterminism(t *testing.T) {
	run := func() (map[string]uint64, []float64) {
		c, err := enginetest.Make("pagerank", enginetest.DefaultConfig(9))
		if err != nil {
			t.Fatal(err)
		}
		col := stats.NewCollector()
		rt := c.NewRuntime(engine.Options{Collector: col})
		sys := engine.NewBaseline(engine.GraphBolt(), rt)
		sys.Process(c.Res)
		return col.Snapshot(), rt.S
	}
	c1, s1 := run()
	c2, s2 := run()
	if i := algo.StatesEqual(s1, s2, 0); i >= 0 {
		t.Fatalf("states differ at %d across identical runs", i)
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("counter %s differs: %d vs %d", k, v, c2[k])
		}
	}
}

// baselineSimRun drives the Ligra-o baseline on a simulated machine with
// the host's GOMAXPROCS set to procs and returns (cycles, DRAM bytes,
// final states).
func baselineSimRun(t *testing.T, algoName string, procs int) (float64, uint64, []float64) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	c, err := enginetest.Make(algoName, enginetest.Config{
		Vertices: 1200, Degree: 5, BatchSize: 150, AddFraction: 0.6, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.ScaledConfig()
	cfg.Cores = 8
	m := sim.New(cfg)
	sys := engine.NewBaseline(engine.LigraO(), c.NewRuntime(engine.Options{Machine: m, Cores: 8}))
	sys.Process(c.Res)
	if err := c.Verify(sys); err != nil {
		t.Fatal(err)
	}
	m.Finish()
	return m.Time(), m.DRAM().BytesMoved, sys.Runtime().S
}

// TestBaselineHostParDeterminism: for the software-baseline engine family
// on the simulated machine, runs at GOMAXPROCS 1 and 4 agree bit-for-bit
// on cycle counts, DRAM traffic and final vertex states; the simulated
// results do not depend on the host's parallelism.
func TestBaselineHostParDeterminism(t *testing.T) {
	for _, algoName := range []string{"sssp", "pagerank"} {
		t.Run(algoName, func(t *testing.T) {
			c1, b1, s1 := baselineSimRun(t, algoName, 1)
			c4, b4, s4 := baselineSimRun(t, algoName, 4)
			if c1 != c4 {
				t.Errorf("cycles: GOMAXPROCS=1 %v != GOMAXPROCS=4 %v", c1, c4)
			}
			if b1 != b4 {
				t.Errorf("DRAM bytes: GOMAXPROCS=1 %d != GOMAXPROCS=4 %d", b1, b4)
			}
			if i := algo.StatesEqual(s1, s4, 0); i >= 0 {
				t.Errorf("states differ at vertex %d", i)
			}
		})
	}
}
