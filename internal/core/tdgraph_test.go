package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/core"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

var allAlgos = []string{"sssp", "cc", "pagerank", "adsorption"}

func variants() []core.Config {
	hw := core.DefaultConfig()
	hwNoVSCU := core.DefaultConfig()
	hwNoVSCU.EnableVSCU = false
	sw := core.SoftwareConfig()
	swNoVSCU := core.SoftwareConfig()
	swNoVSCU.EnableVSCU = false
	return []core.Config{hw, hwNoVSCU, sw, swNoVSCU}
}

// TestTDGraphMatchesOracle checks every TDGraph variant × algorithm ×
// seeds against the full-recompute oracle.
func TestTDGraphMatchesOracle(t *testing.T) {
	for _, cfg := range variants() {
		for _, algoName := range allAlgos {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", cfg.VariantName(), algoName, seed)
				t.Run(name, func(t *testing.T) {
					c, err := enginetest.Make(algoName, enginetest.DefaultConfig(seed))
					if err != nil {
						t.Fatal(err)
					}
					rt := c.NewRuntime(engine.Options{Cores: 4})
					sys := core.New(cfg, rt)
					sys.Process(c.Res)
					if err := c.Verify(sys); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestTDGraphDeleteHeavy stresses monotonic deletion repair through the
// topology-driven path.
func TestTDGraphDeleteHeavy(t *testing.T) {
	for _, algoName := range []string{"sssp", "cc"} {
		t.Run(algoName, func(t *testing.T) {
			cfg := enginetest.DefaultConfig(13)
			cfg.AddFraction = 0.15
			c, err := enginetest.Make(algoName, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys := core.New(core.DefaultConfig(), c.NewRuntime(engine.Options{Cores: 8}))
			sys.Process(c.Res)
			if err := c.Verify(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTDGraphStackDepths verifies correctness is independent of the
// bounded stack depth (Fig 21's premise: depth trades performance, never
// correctness).
func TestTDGraphStackDepths(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 10, 64} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			c, err := enginetest.Make("sssp", enginetest.DefaultConfig(21))
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.StackDepth = depth
			sys := core.New(cfg, c.NewRuntime(engine.Options{Cores: 4}))
			sys.Process(c.Res)
			if err := c.Verify(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTDGraphAlphaSweep verifies correctness across VSCU hot fractions
// (Fig 22's premise).
func TestTDGraphAlphaSweep(t *testing.T) {
	for _, alpha := range []float64{0.0005, 0.005, 0.05, 0.5} {
		t.Run(fmt.Sprintf("alpha%g", alpha), func(t *testing.T) {
			c, err := enginetest.Make("pagerank", enginetest.DefaultConfig(23))
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Alpha = alpha
			sys := core.New(cfg, c.NewRuntime(engine.Options{Cores: 4}))
			sys.Process(c.Res)
			if err := c.Verify(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTDGraphSingleCore exercises the degenerate one-chunk case where all
// propagation happens within one TDTU.
func TestTDGraphSingleCore(t *testing.T) {
	for _, algoName := range allAlgos {
		t.Run(algoName, func(t *testing.T) {
			c, err := enginetest.Make(algoName, enginetest.DefaultConfig(31))
			if err != nil {
				t.Fatal(err)
			}
			sys := core.New(core.DefaultConfig(), c.NewRuntime(engine.Options{Cores: 1}))
			sys.Process(c.Res)
			if err := c.Verify(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTDGraphFewerUpdatesThanBaseline checks the paper's central claim
// (Fig 11): the synchronised propagation performs significantly fewer
// vertex state updates than the unsynchronised baseline on the same
// batch.
func TestTDGraphFewerUpdatesThanBaseline(t *testing.T) {
	for _, algoName := range []string{"sssp", "pagerank"} {
		t.Run(algoName, func(t *testing.T) {
			cfg := enginetest.DefaultConfig(41)
			cfg.Vertices = 4000
			cfg.Degree = 8
			cfg.BatchSize = 400

			c, err := enginetest.Make(algoName, cfg)
			if err != nil {
				t.Fatal(err)
			}
			colB := stats.NewCollector()
			base := engine.NewBaseline(engine.LigraO(), c.NewRuntime(engine.Options{Cores: 4, Collector: colB}))
			base.Process(c.Res)

			c2, err := enginetest.Make(algoName, cfg)
			if err != nil {
				t.Fatal(err)
			}
			colT := stats.NewCollector()
			td := core.New(core.DefaultConfig(), c2.NewRuntime(engine.Options{Cores: 4, Collector: colT}))
			td.Process(c2.Res)

			bu := colB.Get(stats.CtrStateUpdates)
			tu := colT.Get(stats.CtrStateUpdates)
			if tu == 0 || bu == 0 {
				t.Fatalf("updates: baseline=%d tdgraph=%d", bu, tu)
			}
			if tu > bu {
				t.Fatalf("TDGraph performed more updates (%d) than baseline (%d)", tu, bu)
			}
		})
	}
}

// TestTDGraphOnSimulatedMachine runs TDGraph-H on the simulated machine
// and checks machine metrics are populated and the result is correct.
func TestTDGraphOnSimulatedMachine(t *testing.T) {
	c, err := enginetest.Make("sssp", enginetest.Config{
		Vertices: 800, Degree: 5, BatchSize: 100, AddFraction: 0.7, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	scfg := sim.DefaultConfig()
	scfg.Cores = 8
	m := sim.New(scfg)
	col := stats.NewCollector()
	rt := c.NewRuntime(engine.Options{
		Machine: m, Collector: col,
		Layout: engine.LayoutOptions{TDGraph: true, Alpha: 0.005},
	})
	sys := core.New(core.DefaultConfig(), rt)
	sys.Process(c.Res)
	if err := c.Verify(sys); err != nil {
		t.Fatal(err)
	}
	if m.Time() <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if col.Get(stats.CtrPrefetchedEdges) == 0 {
		t.Fatal("TDTU prefetched no edges")
	}
}

// TestTopologyListDrains checks the TDTU invariant: after processing, no
// vertex is left with a positive Topology_List count *and* a pending
// propagation (all tracked propagations were either delivered or
// abandoned because their source state stopped improving).
func TestTopologyListDrains(t *testing.T) {
	c, err := enginetest.Make("sssp", enginetest.DefaultConfig(51))
	if err != nil {
		t.Fatal(err)
	}
	rt := c.NewRuntime(engine.Options{Cores: 4})
	sys := core.New(core.DefaultConfig(), rt)
	sys.Process(c.Res)
	if rt.HasActive() {
		t.Fatal("active vertices remain after Process")
	}
}

// TestTDGraphDeterminism requires bit-identical states and counters
// across repeated runs.
func TestTDGraphDeterminism(t *testing.T) {
	run := func() (map[string]uint64, []float64) {
		c, err := enginetest.Make("adsorption", enginetest.DefaultConfig(61))
		if err != nil {
			t.Fatal(err)
		}
		col := stats.NewCollector()
		rt := c.NewRuntime(engine.Options{Cores: 4, Collector: col})
		sys := core.New(core.DefaultConfig(), rt)
		sys.Process(c.Res)
		return col.Snapshot(), rt.S
	}
	c1, s1 := run()
	c2, s2 := run()
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("state %d differs across runs", i)
		}
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Fatalf("counter %s differs: %d vs %d", k, v, c2[k])
		}
	}
}

// tdgraphSimRun drives the full TDGraph-H model (TDTU + VSCU) on a
// simulated machine with the host's GOMAXPROCS set to procs and returns
// (cycles, DRAM bytes, invalidations, final states).
func tdgraphSimRun(t *testing.T, algoName string, procs int) (float64, uint64, uint64, []float64) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	c, err := enginetest.Make(algoName, enginetest.Config{
		Vertices: 1200, Degree: 5, BatchSize: 150, AddFraction: 0.6, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.ScaledConfig()
	cfg.Cores = 8
	m := sim.New(cfg)
	rt := c.NewRuntime(engine.Options{
		Machine: m,
		Cores:   8,
		Layout:  engine.LayoutOptions{TDGraph: true, Alpha: 0.005},
	})
	sys := core.New(core.DefaultConfig(), rt)
	sys.Process(c.Res)
	if err := c.Verify(sys); err != nil {
		t.Fatal(err)
	}
	m.Finish()
	return m.Time(), m.DRAM().BytesMoved, m.Invalidations(), sys.Runtime().S
}

// TestTDGraphHostParDeterminism: for the TDGraph-H engine family on the
// simulated machine, runs at GOMAXPROCS 1 and 4 agree bit-for-bit on
// cycle counts, DRAM traffic, coherence activity and final vertex
// states; the simulated results do not depend on the host's parallelism.
func TestTDGraphHostParDeterminism(t *testing.T) {
	for _, algoName := range []string{"sssp", "pagerank"} {
		t.Run(algoName, func(t *testing.T) {
			c1, b1, i1, s1 := tdgraphSimRun(t, algoName, 1)
			c4, b4, i4, s4 := tdgraphSimRun(t, algoName, 4)
			if c1 != c4 {
				t.Errorf("cycles: GOMAXPROCS=1 %v != GOMAXPROCS=4 %v", c1, c4)
			}
			if b1 != b4 {
				t.Errorf("DRAM bytes: GOMAXPROCS=1 %d != GOMAXPROCS=4 %d", b1, b4)
			}
			if i1 != i4 {
				t.Errorf("invalidations: GOMAXPROCS=1 %d != GOMAXPROCS=4 %d", i1, i4)
			}
			if i := algo.StatesEqual(s1, s4, 0); i >= 0 {
				t.Errorf("states differ at vertex %d", i)
			}
		})
	}
}
