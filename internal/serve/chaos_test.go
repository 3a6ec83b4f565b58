package serve

import (
	"math/rand"
	"testing"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// TestChaosKillRecover is the durability acceptance test: a pipeline
// running with fsync-per-batch is killed at a seeded random byte offset
// in its WAL write stream (CrashFS panics mid-write, exactly like
// kill -9), the simulated page cache then loses a random amount of the
// unsynced tail, and recovery — checkpoint restore into a fresh native
// session, WAL replay, re-feed — must
//
//  1. lose nothing past the last fsync barrier — every batch whose
//     Ingest returned before the kill is still there, and
//  2. after re-feeding the not-yet-durable batches, land on final
//     vertex states Float64bits-identical to the sim-engine reference
//     that was never killed: cross-engine and cross-crash in one
//     comparison.
//
// A killed pipeline is dropped without Close, as a dead process would
// be. Every trial is deterministic from its seed and race-clean.
func TestChaosKillRecover(t *testing.T) {
	killRecoverTrials(t, 1000)
}

// TestNativeEngineChaosKillRecover runs the same kill-anywhere trials
// over a second, disjoint seed family, so twenty distinct crash offsets
// in total are checked against the sim-engine reference.
func TestNativeEngineChaosKillRecover(t *testing.T) {
	killRecoverTrials(t, 4000)
}

// killRecoverTrials runs ten seeded kill/recover trials, seeds
// seedBase..seedBase+9, one subtest each.
func killRecoverTrials(t *testing.T, seedBase int64) {
	w := testWorkload(t, 8)
	want := referenceStates(t, w)

	// Upper bound on the run's total WAL byte stream, so armed crash
	// offsets cover everything from the first header to past the end
	// (offsets beyond the end mean "no crash fires" — also a trial).
	totalBytes := int64(16) // segment header
	for _, b := range w.Batches {
		totalBytes += int64(16 + 13*len(b))
	}

	for trial := 0; trial < 10; trial++ {
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seedBase + int64(trial)))
			armAt := rng.Int63n(totalBytes + totalBytes/4)

			cfs := fault.NewCrashFS()
			crashCfg := pipelineConfig(t, w)
			crashCfg.WAL.FS = cfs

			p, err := NewPipeline(crashCfg)
			if err != nil {
				t.Fatal(err)
			}
			cfs.ArmCrash(armAt)

			// Feed until the kill (or the end). fed counts batches whose
			// Ingest RETURNED — with fsync-per-batch each one is durable.
			fed := 0
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(fault.CrashSignal); !ok {
							panic(r)
						}
					}
				}()
				for _, b := range w.Batches {
					if err := p.Ingest(b); err != nil {
						t.Errorf("ingest before crash failed: %v", err)
						return
					}
					fed++
				}
			}()
			if t.Failed() {
				return
			}

			if cfs.Crashed() {
				// The process is "dead": the page cache loses a random
				// prefix of everything unsynced. No Close runs.
				if err := cfs.LoseUnsynced(rng); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
			}

			// Reboot on the real filesystem over what survived.
			recoverCfg := crashCfg
			recoverCfg.WAL.FS = wal.OSFS{}
			p2, err := NewPipeline(recoverCfg)
			if err != nil {
				t.Fatalf("recovery failed (crashed=%v, fed=%d): %v", cfs.Crashed(), fed, err)
			}

			// Guarantee 1: nothing durable is lost, and nothing the
			// source never finished sending is invented.
			seq := p2.Seq()
			if seq < uint64(fed) {
				t.Fatalf("durable batch lost: recovered seq %d < %d acked", seq, fed)
			}
			if seq > uint64(fed)+1 {
				t.Fatalf("recovered seq %d past the batch being written (%d acked)", seq, fed)
			}

			// Guarantee 2: re-feed what was not yet durable; states must
			// be byte-identical to the uninterrupted run.
			for i := int(seq); i < len(w.Batches); i++ {
				if err := p2.Ingest(w.Batches[i]); err != nil {
					t.Fatalf("re-feed batch %d: %v", i, err)
				}
			}
			if err := p2.Close(); err != nil {
				t.Fatal(err)
			}
			if !statesEqual(p2.Session().States(), want) {
				t.Fatalf("crash at byte %d (fed %d, recovered seq %d): states diverged", armAt, fed, seq)
			}
		})
	}
}

// TestNativeEngineServerRestart drops a pipeline mid-stream without
// Close, as a dead process would be, and recovers a second pipeline
// from durable state only (checkpoint restore + WAL replay into a fresh
// native session). The recovered pipeline must resume at the next
// sequence and finish on the sim-engine reference states.
func TestNativeEngineServerRestart(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(t, w)

	cfg := pipelineConfig(t, w)
	cfg.CheckpointEvery = 2
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range w.Batches {
		if err := p.Ingest(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i == 2 {
			p2, err := NewPipeline(cfg)
			if err != nil {
				t.Fatalf("mid-stream recovery: %v", err)
			}
			if p2.Seq() != uint64(i+1) {
				t.Fatalf("mid-stream recovery at seq %d, want %d", p2.Seq(), i+1)
			}
			p.Session().Close()
			p = p2
		}
	}
	if !statesEqual(p.Session().States(), want) {
		t.Fatal("native states after mid-stream recovery diverge from sim reference")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosTornBatchNeverReplayed pins the other side of the barrier: a
// batch whose WAL append tore mid-record (crash before the fsync) must
// NOT be visible after recovery — half a batch replayed would corrupt
// the graph.
func TestChaosTornBatchNeverReplayed(t *testing.T) {
	w := testWorkload(t, 4)
	cfs := fault.NewCrashFS()
	cfg := pipelineConfig(t, w)
	cfg.WAL.FS = cfs
	cfg.CheckpointPath = ""
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:2] {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash a few bytes into batch 3's record: it is torn, never synced.
	cfs.ArmCrash(5)
	func() {
		defer func() { recover() }()
		_ = p.Ingest(w.Batches[2])
	}()
	if !cfs.Crashed() {
		t.Fatal("crash never fired")
	}
	if err := cfs.LoseUnsynced(rand.New(rand.NewSource(99))); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.WAL.FS = wal.OSFS{}
	p2, err := NewPipeline(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Seq() != 2 {
		t.Fatalf("recovered seq %d, want exactly the 2 synced batches", p2.Seq())
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
}
