package serve

import (
	"math/rand"
	"testing"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// TestChaosKillRecover is the durability acceptance test: a pipeline
// running with fsync-per-batch is killed at a seeded random byte offset
// in its WAL write stream (fault.FS panics mid-write, exactly like
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
	want := referenceStates(w)

	// The run's WAL byte stream: armed crash offsets cover it from the
	// first record to past the end (offsets beyond it mean "no crash
	// fires" — also a trial).
	totalBytes := int64(0)
	for _, b := range w.Batches {
		totalBytes += int64(16 + len(wal.EncodeBatch(b)))
	}

	for trial := 0; trial < 10; trial++ {
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(seedBase + int64(trial)))
			armAt := rng.Int63n(totalBytes + totalBytes/4)
			// Checkpoint saves share the FS, so the crash is armed before
			// the batch whose record holds byte armAt: a save never
			// absorbs it (TestChaosKillInCheckpointSave kills inside one).
			killAndRecover(t, w, want, pipelineConfig(t, w), rng, func(cfs *fault.FS, i int) {
				rec := int64(16 + len(wal.EncodeBatch(w.Batches[i])))
				if armAt >= 0 && armAt < rec {
					cfs.ArmCrash(armAt)
				}
				armAt -= rec
			})
		})
	}
}

// killAndRecover feeds w through a pipeline on a fault.FS, calling arm
// before each batch, until the armed crash fires (its panic value is
// returned; nil if none fired). The page cache then loses a seeded part
// of everything unsynced, and the pipeline reboots on the real disk: it
// must keep every batch whose Ingest returned, invent none past the one
// being written, and after re-feed land on want bit for bit.
func killAndRecover(t *testing.T, w *stream.Workload, want []float64, cfg PipelineConfig, rng *rand.Rand, arm func(cfs *fault.FS, i int)) (signal any, fed int, seq uint64, p2 *Pipeline) {
	t.Helper()
	cfs := fault.NewFS(nil)
	cfg.WAL.FS = cfs
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if signal = recover(); signal != nil {
				if _, ok := signal.(fault.CrashSignal); !ok {
					panic(signal)
				}
			}
		}()
		for i, b := range w.Batches {
			arm(cfs, i)
			if err := p.Ingest(b); err != nil {
				t.Fatalf("ingest before crash failed: %v", err)
			}
			fed++
		}
	}()
	if signal != nil {
		if err := cfs.LoseUnsynced(rng); err != nil {
			t.Fatal(err)
		}
	} else if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.WAL.FS = wal.OSFS{}
	if p2, err = NewPipeline(cfg); err != nil {
		t.Fatalf("recovery failed (crash %v, fed=%d): %v", signal, fed, err)
	}
	if seq = p2.Seq(); seq < uint64(fed) || seq > uint64(fed)+1 {
		t.Fatalf("recovered seq %d with %d acked: a durable batch lost, or one past the batch being written invented", seq, fed)
	}
	for _, b := range w.Batches[seq:] {
		if err := p2.Ingest(b); err != nil {
			t.Fatalf("re-feed: %v", err)
		}
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if !statesEqual(p2.Session().States(), want) {
		t.Fatalf("crash %v (fed %d, recovered seq %d): states diverged", signal, fed, seq)
	}
	return signal, fed, seq, p2
}

// TestNativeEngineServerRestart drops a pipeline mid-stream without
// Close, as a dead process would be, and recovers a second pipeline
// from durable state only (checkpoint restore + WAL replay into a fresh
// native session). The recovered pipeline must resume at the next
// sequence and finish on the sim-engine reference states.
func TestNativeEngineServerRestart(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(w)

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
	cfs := fault.NewFS(nil)
	cfg := pipelineConfig(t, w)
	cfg.WAL.FS = cfs
	cfg.CheckpointPath = "" // the default: generations beside the WAL, on the crashing FS
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

// TestChaosKillInCheckpointSave kills a pipeline inside its second
// checkpoint save, after rotation moved the first generation back a
// slot: checkpoints share the WAL's FS, so the crash lands in the temp
// file. Recovery restores the older generation and replays past it.
func TestChaosKillInCheckpointSave(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(w)
	for _, into := range []int64{0, 9, 100} { // bytes into the checkpoint file
		cfg := pipelineConfig(t, w)
		cfg.CheckpointEvery = 2
		signal, fed, seq, p2 := killAndRecover(t, w, want, cfg, rand.New(rand.NewSource(into)), func(cfs *fault.FS, i int) {
			if i == 3 { // batch 4 checkpoints right after its record
				cfs.ArmCrash(16 + int64(len(wal.EncodeBatch(w.Batches[i]))) + into)
			}
		})
		if crash, ok := signal.(fault.CrashSignal); !ok || crash.Path != cfg.CheckpointPath+".tmp" {
			t.Fatalf("%d bytes in: crash %v, want a CrashSignal in %s.tmp", into, signal, cfg.CheckpointPath)
		}
		// Batch 4 was durable before its checkpoint began.
		if fell := p2.Collector().Get(stats.CtrCheckpointRecovered); seq != uint64(fed)+1 || fell != 1 {
			t.Fatalf("%d bytes in: recovered seq %d after %d fallbacks, want seq %d after 1", into, seq, fell, fed+1)
		}
	}
}
