package accel_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/tdgraph/tdgraph/internal/accel"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// systems lists the accelerator-model constructors under test.
func systems() map[string]func(r *engine.Runtime) engine.System {
	return map[string]func(r *engine.Runtime) engine.System{
		"HATS":           func(r *engine.Runtime) engine.System { return accel.NewHATS(r) },
		"Minnow":         func(r *engine.Runtime) engine.System { return accel.NewMinnow(r) },
		"PHI":            func(r *engine.Runtime) engine.System { return accel.NewPHI(r) },
		"DepGraph":       func(r *engine.Runtime) engine.System { return accel.NewDepGraph(r) },
		"JetStream":      func(r *engine.Runtime) engine.System { return accel.NewJetStream(r, false) },
		"JetStream-with": func(r *engine.Runtime) engine.System { return accel.NewJetStream(r, true) },
		"GraphPulse":     func(r *engine.Runtime) engine.System { return accel.NewGraphPulse(r) },
	}
}

var allAlgos = []string{"sssp", "cc", "pagerank", "adsorption"}

// TestAcceleratorsMatchOracle checks every accelerator model × algorithm
// × seeds against the full-recompute oracle.
func TestAcceleratorsMatchOracle(t *testing.T) {
	for name, mk := range systems() {
		for _, algoName := range allAlgos {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", name, algoName, seed), func(t *testing.T) {
					c, err := enginetest.Make(algoName, enginetest.DefaultConfig(seed))
					if err != nil {
						t.Fatal(err)
					}
					rt := c.NewRuntime(engine.Options{Cores: 4})
					sys := mk(rt)
					sys.Process(c.Res)
					if err := c.Verify(sys); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestAcceleratorsDeleteHeavy stresses the monotonic deletion repair path
// through each model.
func TestAcceleratorsDeleteHeavy(t *testing.T) {
	for name, mk := range systems() {
		t.Run(name, func(t *testing.T) {
			cfg := enginetest.DefaultConfig(77)
			cfg.AddFraction = 0.2
			c, err := enginetest.Make("sssp", cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys := mk(c.NewRuntime(engine.Options{Cores: 4}))
			sys.Process(c.Res)
			if err := c.Verify(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAcceleratorsOnSimulatedMachine runs each model on the simulated
// machine and requires simulated time and memory traffic.
func TestAcceleratorsOnSimulatedMachine(t *testing.T) {
	for name, mk := range systems() {
		t.Run(name, func(t *testing.T) {
			c, err := enginetest.Make("sssp", enginetest.Config{
				Vertices: 600, Degree: 5, BatchSize: 80, AddFraction: 0.7, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			scfg := sim.DefaultConfig()
			scfg.Cores = 4
			m := sim.New(scfg)
			col := stats.NewCollector()
			rt := c.NewRuntime(engine.Options{Machine: m, Collector: col})
			sys := mk(rt)
			sys.Process(c.Res)
			if err := c.Verify(sys); err != nil {
				t.Fatal(err)
			}
			if m.Time() <= 0 {
				t.Fatal("no simulated time")
			}
			if m.DRAM().BytesMoved == 0 {
				t.Fatal("no DRAM traffic")
			}
		})
	}
}

// TestPHICoalescesUpdates requires PHI's combining buffer to actually
// merge some updates on a redundant-update-heavy workload.
func TestPHICoalescesUpdates(t *testing.T) {
	cfg := enginetest.DefaultConfig(31)
	cfg.Vertices = 3000
	cfg.Degree = 8
	cfg.BatchSize = 500
	c, err := enginetest.Make("pagerank", cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := stats.NewCollector()
	sys := accel.NewPHI(c.NewRuntime(engine.Options{Cores: 2, Collector: col}))
	sys.Process(c.Res)
	if err := c.Verify(sys); err != nil {
		t.Fatal(err)
	}
	if col.Get(stats.CtrEventsCoalesced) == 0 {
		t.Fatal("PHI merged no updates")
	}
}

// TestJetStreamCoalescesEvents requires the event queue to merge events.
func TestJetStreamCoalescesEvents(t *testing.T) {
	cfg := enginetest.DefaultConfig(33)
	cfg.Vertices = 3000
	cfg.Degree = 8
	cfg.BatchSize = 500
	c, err := enginetest.Make("sssp", cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := stats.NewCollector()
	sys := accel.NewJetStream(c.NewRuntime(engine.Options{Cores: 2, Collector: col}), false)
	sys.Process(c.Res)
	if err := c.Verify(sys); err != nil {
		t.Fatal(err)
	}
	if col.Get(stats.CtrEventsEnqueued) == 0 {
		t.Fatal("JetStream enqueued no events")
	}
}

// jetstreamRun drives the JetStream model on the simulated machine with
// the host's GOMAXPROCS set to procs (0 leaves it as is) and returns
// (cycles, DRAM bytes, final states). JetStream allocates and marks its
// own event-queue regions on top of the standard layout, so it covers the
// accelerator engine family.
func jetstreamRun(t *testing.T, procs int) (float64, uint64, []float64) {
	t.Helper()
	if procs > 0 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
	}
	c, err := enginetest.Make("sssp", enginetest.Config{
		Vertices: 1200, Degree: 5, BatchSize: 150, AddFraction: 0.6, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.ScaledConfig()
	cfg.Cores = 8
	m := sim.New(cfg)
	sys := accel.NewJetStream(c.NewRuntime(engine.Options{Machine: m, Cores: 8}), false)
	sys.Process(c.Res)
	if err := c.Verify(sys); err != nil {
		t.Fatal(err)
	}
	m.Finish()
	return m.Time(), m.DRAM().BytesMoved, sys.Runtime().S
}

// sameJetStream compares two jetstreamRun results bit-for-bit.
func sameJetStream(t *testing.T, procsA, procsB int) {
	t.Helper()
	c1, b1, s1 := jetstreamRun(t, procsA)
	c2, b2, s2 := jetstreamRun(t, procsB)
	if c1 != c2 {
		t.Errorf("cycles: %v != %v", c2, c1)
	}
	if b1 != b2 {
		t.Errorf("DRAM bytes: %d != %d", b2, b1)
	}
	for i := range s1 {
		if math.Float64bits(s1[i]) != math.Float64bits(s2[i]) {
			t.Fatalf("state %d differs: %v vs %v", i, s1[i], s2[i])
		}
	}
}

// TestJetStreamDeterminism: two JetStream runs on the simulated machine
// agree bit-for-bit on cycles, DRAM traffic and final vertex states.
func TestJetStreamDeterminism(t *testing.T) {
	sameJetStream(t, 0, 0)
}

// TestJetStreamHostParDeterminism: the simulated results do not depend on
// the host's parallelism; runs at GOMAXPROCS 1 and 4 agree bit-for-bit.
func TestJetStreamHostParDeterminism(t *testing.T) {
	sameJetStream(t, 1, 4)
}
