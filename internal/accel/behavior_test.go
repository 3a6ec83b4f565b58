package accel_test

import (
	"testing"

	"github.com/tdgraph/tdgraph/internal/accel"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// TestJetStreamQueueSpill shrinks the event queue so the spill path runs,
// and requires correctness to survive it.
func TestJetStreamQueueSpill(t *testing.T) {
	cfg := enginetest.DefaultConfig(41)
	cfg.Vertices = 3000
	cfg.Degree = 8
	cfg.BatchSize = 600
	c, err := enginetest.Make("sssp", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := c.NewRuntime(engine.Options{Cores: 2})
	js := accel.NewJetStream(rt, false)
	js.QueueCap = 4 // force spills
	js.Process(c.Res)
	if err := c.Verify(js); err != nil {
		t.Fatal(err)
	}
}

// TestPHIBufferSizes verifies correctness across combining-buffer sizes,
// including the degenerate single-entry buffer.
func TestPHIBufferSizes(t *testing.T) {
	for _, entries := range []int{1, 8, 256} {
		c, err := enginetest.Make("pagerank", enginetest.DefaultConfig(43))
		if err != nil {
			t.Fatal(err)
		}
		rt := c.NewRuntime(engine.Options{Cores: 2})
		ph := accel.NewPHI(rt)
		ph.BufferEntries = entries
		ph.Process(c.Res)
		if err := c.Verify(ph); err != nil {
			t.Fatalf("entries=%d: %v", entries, err)
		}
	}
}

// TestMinnowPrefetchDepths verifies correctness across worklist-directed
// prefetch depths.
func TestMinnowPrefetchDepths(t *testing.T) {
	for _, ahead := range []int{0, 1, 64} {
		c, err := enginetest.Make("cc", enginetest.DefaultConfig(47))
		if err != nil {
			t.Fatal(err)
		}
		rt := c.NewRuntime(engine.Options{Cores: 2})
		mw := accel.NewMinnow(rt)
		mw.PrefetchAhead = ahead
		mw.Process(c.Res)
		if err := c.Verify(mw); err != nil {
			t.Fatalf("ahead=%d: %v", ahead, err)
		}
	}
}

// TestCoreCountInvariance: the functional result must not depend on the
// partition width for any model (updates are commutative).
func TestCoreCountInvariance(t *testing.T) {
	for name, mk := range systems() {
		t.Run(name, func(t *testing.T) {
			var ref []float64
			for _, cores := range []int{1, 3, 16} {
				c, err := enginetest.Make("sssp", enginetest.DefaultConfig(53))
				if err != nil {
					t.Fatal(err)
				}
				sys := mk(c.NewRuntime(engine.Options{Cores: cores}))
				sys.Process(c.Res)
				if err := c.Verify(sys); err != nil {
					t.Fatalf("cores=%d: %v", cores, err)
				}
				if ref == nil {
					ref = sys.Runtime().S
					continue
				}
				got := sys.Runtime().S
				for i := range ref {
					if ref[i] != got[i] {
						t.Fatalf("cores=%d: state %d differs from 1-core run", cores, i)
					}
				}
			}
		})
	}
}

// TestJetStreamUselessPrefetchCounted: stale events must surface in the
// useless-prefetch counter (the Fig 16 metric).
func TestJetStreamUselessPrefetchCounted(t *testing.T) {
	cfg := enginetest.DefaultConfig(59)
	cfg.Vertices = 4000
	cfg.Degree = 8
	cfg.BatchSize = 800
	c, err := enginetest.Make("sssp", cfg)
	if err != nil {
		t.Fatal(err)
	}
	col := stats.NewCollector()
	js := accel.NewJetStream(c.NewRuntime(engine.Options{Cores: 2, Collector: col}), false)
	js.Process(c.Res)
	if err := c.Verify(js); err != nil {
		t.Fatal(err)
	}
	if col.Get(stats.CtrPrefetchUseless) == 0 {
		t.Fatal("no useless prefetches recorded on a contended workload")
	}
}

// TestJetStreamWithTouchesHotStateOncePerEvent pins the hot-state lookups
// of JetStream-with on an accumulative run: one per processed event, so
// a second lookup on the delta path shows as extra hits.
func TestJetStreamWithTouchesHotStateOncePerEvent(t *testing.T) {
	c, err := enginetest.Make("pagerank", enginetest.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	col := stats.NewCollector()
	js := accel.NewJetStream(c.NewRuntime(engine.Options{Cores: 4, Collector: col}), true)
	js.Process(c.Res)
	if err := c.Verify(js); err != nil {
		t.Fatal(err)
	}
	if got := col.Get(stats.CtrVerticesProcessed); got != 17285 {
		t.Fatalf("processed %d events, want 17285", got)
	}
	if got := col.Get(stats.CtrHotHits); got != 186 {
		t.Fatalf("CtrHotHits = %d, want 186", got)
	}
}
