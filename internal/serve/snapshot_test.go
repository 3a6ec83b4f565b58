package serve

import (
	"os"
	"path/filepath"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// TestInstallSnapshotSwapsState: installing a shipped checkpoint
// replaces the pipeline's entire durable identity — engine states,
// sequence, checkpoint generation, and a reset WAL — and the new
// identity both extends live and survives a restart.
func TestInstallSnapshotSwapsState(t *testing.T) {
	w := testWorkload(t, 12)
	want := referenceStates(w)
	base := settledWorkers()

	// Source: six batches in, newest generation covers seq 6.
	src, err := NewPipeline(pipelineConfig(t, w))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:6] {
		if err := src.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	srcStates := append([]float64(nil), src.Session().States()...)
	seq, data, err := src.SnapshotSource().NewestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("newest snapshot covers seq %d, want 6", seq)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	// Target: a different two-batch life, with two generations of its
	// own on disk, that is about to be replaced.
	cfg := pipelineConfig(t, w)
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:2] {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
		if err := p.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	tmp := filepath.Join(t.TempDir(), "shipped.tds")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := p.InstallSnapshot(tmp, seq); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if p.Seq() != 6 {
		t.Fatalf("pipeline at seq %d after install, want 6", p.Seq())
	}
	// Exactly one worker pool: the replaced session's is parked, and the
	// installed session runs the native engine.
	if got := settledWorkers(); got != base+1 {
		t.Fatalf("%d native worker goroutines alive after install, want %d", got, base+1)
	}
	// The replaced life's generations are gone with it: a fallback
	// restore must never reach past the install.
	if gens, err := os.ReadDir(filepath.Dir(cfg.CheckpointPath)); err != nil || len(gens) != 1 || gens[0].Name() != "ckpt.tds" {
		t.Fatalf("checkpoint directory after install holds %v (err %v), want only the installed generation", gens, err)
	}
	if !statesEqual(p.Session().States(), srcStates) {
		t.Fatal("installed states differ from the shipped checkpoint's")
	}
	// The old WAL is gone: records 1..2 of the replaced life must not
	// shadow the installed state on a future replay.
	if start, err := wal.StartSeq(cfg.WAL); err != nil || start != 0 {
		t.Fatalf("WAL not reset after install: start %d err %v", start, err)
	}

	// The installed identity extends: the live tail lands on reference.
	for _, b := range w.Batches[6:] {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if !statesEqual(p.Session().States(), want) {
		t.Fatal("post-install ingestion diverged from reference")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// And it survives a restart: checkpoint + WAL tail recover it.
	p2, err := NewPipeline(cfg)
	if err != nil {
		t.Fatalf("reopen after install: %v", err)
	}
	defer p2.Close()
	if p2.Seq() != 12 || !statesEqual(p2.Session().States(), want) {
		t.Fatalf("restart recovered seq %d, want 12 with reference states", p2.Seq())
	}
}

// TestInstallSnapshotRejectsBadInputs: every refused install leaves
// the pipeline exactly as it was — same sequence, same states, still
// ingesting.
func TestInstallSnapshotRejectsBadInputs(t *testing.T) {
	w := testWorkload(t, 4)

	t.Run("no checkpoint path", func(t *testing.T) {
		cfg := pipelineConfig(t, w)
		cfg.CheckpointPath = ""
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if p.CanInstallSnapshot() {
			t.Fatal("pipeline without a checkpoint path claims it can install")
		}
		if err := p.InstallSnapshot("nowhere.tds", 1); err == nil {
			t.Fatal("install without a checkpoint path succeeded")
		}
	})

	// One source snapshot for the corrupt-input cases.
	src, err := NewPipeline(pipelineConfig(t, w))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:3] {
		if err := src.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	seq, data, err := src.SnapshotSource().NewestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	short := tdgraph.Checkpointer{Path: filepath.Join(t.TempDir(), "short.tds"), Keep: 1}
	if err := short.SaveWithMeta(src.Session(), encodeSeqMeta(seq)[:5]); err != nil {
		t.Fatal(err)
	}
	shortData, err := os.ReadFile(short.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		seq  uint64 // the sequence the file is offered under
	}{
		{"unparseable checkpoint bytes", []byte("junk, not a checkpoint"), seq},
		{"truncated metadata", shortData, seq},
		{"in-band sequence differs from the offer", data, seq + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPipeline(pipelineConfig(t, w))
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for _, b := range w.Batches[:2] {
				if err := p.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			before := append([]float64(nil), p.Session().States()...)
			tmp := filepath.Join(t.TempDir(), "bad.tds")
			if err := os.WriteFile(tmp, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := p.InstallSnapshot(tmp, tc.seq); err == nil {
				t.Fatal("corrupt install succeeded")
			}
			if p.Seq() != 2 || !statesEqual(p.Session().States(), before) {
				t.Fatalf("refused install disturbed the pipeline (seq %d)", p.Seq())
			}
			if err := p.Ingest(w.Batches[2]); err != nil {
				t.Fatalf("pipeline cannot ingest after a refused install: %v", err)
			}
		})
	}
}

// stubAdvisor advises retention: the serve layer must reach RetainFloor
// through the interface seam alone.
type stubAdvisor struct {
	floor uint64
	ok    bool
}

func (s *stubAdvisor) RetainFloor() (uint64, bool) { return s.floor, s.ok }

// TestRetainFloorBoundsRetention: a replication floor pins WAL
// segments that local generation retention would otherwise delete, and
// lifting the constraint releases them at the next checkpoint.
func TestRetainFloorBoundsRetention(t *testing.T) {
	w := testWorkload(t, 8)
	adv := &stubAdvisor{floor: 0, ok: true}
	cfg := pipelineConfig(t, w)
	cfg.WAL.SegmentBytes = 512
	cfg.CheckpointEvery = 2
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetRetentionAdvisor(adv)
	for _, b := range w.Batches {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoints advanced through seq 8, but the floor says nothing
	// may be truncated: every segment must still be on disk.
	if start, err := wal.StartSeq(cfg.WAL); err != nil || start != 1 {
		t.Fatalf("floor=0 still let retention advance: start %d err %v", start, err)
	}
	if n := p.Collector().Get(stats.CtrWALRetained); n != 0 {
		t.Fatalf("floor=0 but %d segments were removed", n)
	}

	// Constraint lifted (no live followers): the local generation rule
	// alone governs again, and the next checkpoint frees the backlog.
	adv.ok = false
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	start, err := wal.StartSeq(cfg.WAL)
	if err != nil {
		t.Fatal(err)
	}
	if start <= 1 {
		t.Fatalf("retention did not advance after the floor lifted (start %d)", start)
	}
	if n := p.Collector().Get(stats.CtrWALRetained); n == 0 {
		t.Fatal("no segments removed after the floor lifted")
	}
}
