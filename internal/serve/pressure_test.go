package serve

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// TestSLOControllerEscalatesAndRelaxes: sustained over-target latency
// climbs the ladder one rung per streak; sustained healthy latency
// climbs back down, more slowly.
func TestSLOControllerEscalatesAndRelaxes(t *testing.T) {
	c := NewSLOController(10 * time.Millisecond)
	if c.Level() != PressureNone {
		t.Fatalf("fresh controller at %v", c.Level())
	}
	// Three hot observations are not a streak yet.
	for i := 0; i < 3; i++ {
		c.Observe(50 * time.Millisecond)
	}
	if c.Level() != PressureNone {
		t.Fatalf("escalated after only 3 hot observations: %v", c.Level())
	}
	c.Observe(50 * time.Millisecond)
	if c.Level() != PressureCoalesce {
		t.Fatalf("4th hot observation: level %v, want coalesce", c.Level())
	}
	for i := 0; i < 4; i++ {
		c.Observe(50 * time.Millisecond)
	}
	if c.Level() != PressureShed {
		t.Fatalf("8th hot observation: level %v, want shed", c.Level())
	}
	if ra := c.RetryAfter(); ra < c.target/4 || ra > 4*c.target {
		t.Fatalf("retry-after %v outside [target/4, 4*target]", ra)
	}

	// Healthy again: the EWMA has to decay below target/2, then two
	// relax streaks bring it back to none. Bounded loop, deterministic.
	for i := 0; i < 256 && c.Level() != PressureNone; i++ {
		c.Observe(time.Millisecond)
	}
	if c.Level() != PressureNone {
		t.Fatalf("controller never relaxed: %v", c.Level())
	}
	if ra := c.RetryAfter(); ra != 0 {
		t.Fatalf("retry-after %v below shed, want 0", ra)
	}
}

// TestSLOControllerNilSafe: a nil controller (SLO disabled) is inert.
func TestSLOControllerNilSafe(t *testing.T) {
	var c *SLOController
	if got := NewSLOController(0); got != nil {
		t.Fatalf("zero target built a controller: %+v", got)
	}
	c.Observe(time.Second) // must not panic
	if c.Level() != PressureNone || c.RetryAfter() != 0 {
		t.Fatal("nil controller is not inert")
	}
}

// TestPipelineDeadlineAdmitExpiry: an already-expired deadline refuses
// the batch before any I/O — non-durable, typed, counted — and the
// same batch succeeds once given budget.
func TestPipelineDeadlineAdmitExpiry(t *testing.T) {
	w := testWorkload(t, 2)
	cfg := pipelineConfig(t, w)
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	_, err = p.Append([][]byte{wal.EncodeBatch(w.Batches[0])}, time.Now()) // expired on arrival
	var ie *IngestError
	if !errors.As(err, &ie) || ie.Stage != "admit" || ie.Durable() {
		t.Fatalf("want non-durable admit-stage error, got %v", err)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("lost ErrDeadline: %v", err)
	}
	var de *DeadlineError
	if !errors.As(err, &de) || de.Stage != "admit" {
		t.Fatalf("deadline stage %v, want admit", err)
	}
	if p.Seq() != 0 {
		t.Fatalf("expired batch advanced seq to %d", p.Seq())
	}
	if got := p.Collector().Get(stats.CtrServeDeadlineExpired); got != 1 {
		t.Fatalf("deadline counter %d, want 1", got)
	}

	// The identical batch with budget left goes straight through.
	if seq, err := p.Append([][]byte{wal.EncodeBatch(w.Batches[0])}, time.Now().Add(time.Hour)); err != nil || seq != 1 {
		t.Fatalf("append with budget left: seq %d, err %v", seq, err)
	}
	if err := p.Apply(w.Batches[:1]); err != nil {
		t.Fatal(err)
	}
	if p.Seq() != 1 {
		t.Fatalf("seq %d after successful ingest, want 1", p.Seq())
	}
}

// TestPipelineDiskPressureReadOnlyAndResume: the probe-driven ladder —
// free space sags below the low-water mark, the pipeline enters
// read-only with typed retryable refusals, space frees, ingestion
// resumes past the high-water mark with zero loss.
func TestPipelineDiskPressureReadOnlyAndResume(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(w)
	cfg := pipelineConfig(t, w)
	// Retention frees nothing, so pressure must hold: the 4 MiB default
	// segment never seals.
	fs := fault.NewFS(nil)
	fs.LowSpace(1600) // probe-only volume: 1600 bytes capacity
	cfg.WAL.FS = fs
	cfg.DiskLowWater = 600 // resumes at 1200

	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Ingest until the ladder trips (each record is ~290 bytes; the
	// 1600-byte volume cannot take them all).
	next := 0
	var derr error
	for ; next < len(w.Batches); next++ {
		if derr = p.Ingest(w.Batches[next]); derr != nil {
			break
		}
	}
	if derr == nil {
		t.Fatal("volume never filled; capacity vs workload mismatch")
	}
	var ie *IngestError
	if !errors.As(derr, &ie) || ie.Stage != "admit" || ie.Durable() {
		t.Fatalf("want non-durable admit refusal, got %v", derr)
	}
	if !errors.Is(derr, ErrDiskPressure) {
		t.Fatalf("lost ErrDiskPressure: %v", derr)
	}
	var dpe *DiskPressureError
	if !errors.As(derr, &dpe) || dpe.LowWater != 600 {
		t.Fatalf("disk-pressure detail wrong: %v", derr)
	}
	if !p.readOnly.Load() {
		t.Fatal("pipeline not read-only after the refusal")
	}
	// Read-only holds below the high-water mark on every retry.
	if err := p.Ingest(w.Batches[next]); !errors.Is(err, ErrDiskPressure) {
		t.Fatalf("read-only pipeline admitted: %v", err)
	}
	col := p.Collector()
	if got := col.Get(stats.CtrServeReadonlyEntries); got != 1 {
		t.Fatalf("readonly entries %d, want 1", got)
	}
	if got := col.Get(stats.CtrServeDiskPressure); got < 2 {
		t.Fatalf("disk-pressure rejects %d, want >= 2", got)
	}

	// Free space (an operator clears the volume); ingest resumes and
	// the run converges on the reference states with nothing lost.
	fs.AddDiskSpace(1 << 20)
	for ; next < len(w.Batches); next++ {
		if err := p.Ingest(w.Batches[next]); err != nil {
			t.Fatalf("batch %d after space freed: %v", next, err)
		}
	}
	if p.readOnly.Load() {
		t.Fatal("pipeline still read-only after space freed")
	}
	if got := col.Get(stats.CtrServeReadonlyExits); got != 1 {
		t.Fatalf("readonly exits %d, want 1", got)
	}
	if p.Seq() != uint64(len(w.Batches)) {
		t.Fatalf("seq %d, want %d", p.Seq(), len(w.Batches))
	}
	if !statesEqual(p.Session().States(), want) {
		t.Fatal("degraded-and-resumed run diverged from reference")
	}
}

// TestPipelineDiskPressureKeepsLogWithoutGeneration: before a
// pipeline's first checkpoint generation the WAL is the only copy of
// its state, so the ladder's compaction frees nothing and read-only
// holds instead; a crash then recovers every acknowledged batch.
func TestPipelineDiskPressureKeepsLogWithoutGeneration(t *testing.T) {
	w := testWorkload(t, 8)
	cfg := pipelineConfig(t, w)
	cfg.CheckpointEvery = -1
	cfg.WAL.SegmentBytes = 64 // one sealed segment per record
	fs := fault.NewFS(nil)
	fs.LowSpace(1600)
	cfg.WAL.FS = fs
	cfg.DiskLowWater = 600

	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked := w.Batches[:0]
	for _, b := range w.Batches {
		if err := p.Ingest(b); err != nil {
			if !errors.Is(err, ErrDiskPressure) {
				t.Fatalf("batch %d: %v", len(acked)+1, err)
			}
			break
		}
		acked = append(acked, b)
	}
	readOnly, removed := p.readOnly.Load(), p.Collector().Get(stats.CtrWALRetained)
	p.release() // crash: no final checkpoint

	p2, err := NewPipeline(cfg)
	if err != nil {
		t.Fatalf("recovery after the crash: %v", err)
	}
	defer p2.Close()
	w.Batches = acked
	if p2.Seq() != uint64(len(acked)) || !statesEqual(p2.Session().States(), referenceStates(w)) {
		t.Fatalf("recovered seq %d, want %d acknowledged batches with reference states", p2.Seq(), len(acked))
	}
	if removed != 0 || !readOnly {
		t.Fatalf("compaction removed %d segments (read-only %v) with no generation to restore from", removed, readOnly)
	}
}

// TestPipelineENOSPCAppendDegradesNotPoisons: a hard ENOSPC mid-append
// persists nothing, degrades to read-only with a retryable typed
// error, and the SAME sequence succeeds after space frees — never
// poisoned, never double-applied.
func TestPipelineENOSPCAppendDegradesNotPoisons(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(w)
	cfg := pipelineConfig(t, w)
	// Retention frees nothing, so only AddDiskSpace makes room: the
	// 4 MiB default segment never seals.
	fs := fault.NewFS(nil)
	fs.NoSpace(900) // writes beyond 900 bytes fail ENOSPC
	cfg.WAL.FS = fs

	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	next := 0
	var derr error
	for ; next < len(w.Batches); next++ {
		if derr = p.Ingest(w.Batches[next]); derr != nil {
			break
		}
	}
	if derr == nil {
		t.Fatal("capacity never exhausted")
	}
	seqBefore := p.Seq()
	var ie *IngestError
	if !errors.As(derr, &ie) || ie.Durable() {
		t.Fatalf("ENOSPC append must be non-durable (safe to re-send), got %v", derr)
	}
	if !errors.Is(derr, ErrDiskPressure) || !errors.Is(derr, wal.ErrNoSpace) {
		t.Fatalf("lost the typed chain: %v", derr)
	}
	if !p.readOnly.Load() {
		t.Fatal("ENOSPC did not enter read-only")
	}
	if p.Seq() != seqBefore {
		t.Fatal("failed append advanced the sequence")
	}

	// Space frees; the same batch (same sequence) goes through, pure
	// ENOSPC mode exits read-only on the first fitting write.
	fs.AddDiskSpace(1 << 20)
	for ; next < len(w.Batches); next++ {
		if err := p.Ingest(w.Batches[next]); err != nil {
			t.Fatalf("batch %d after space freed: %v", next, err)
		}
	}
	if p.readOnly.Load() {
		t.Fatal("still read-only after a successful append")
	}
	col := p.Collector()
	if got := col.Get(stats.CtrServeReadonlyExits); got != 1 {
		t.Fatalf("readonly exits %d, want 1", got)
	}
	if !statesEqual(p.Session().States(), want) {
		t.Fatal("ENOSPC-degraded run diverged from reference")
	}
}

// TestPipelineCheckpointENOSPCAbsorbed: a checkpoint that cannot be
// cut for lack of space must not fail the batch — it is already
// durable and applied — and the checkpoint is retried on the next
// batch once space returns.
func TestPipelineCheckpointENOSPCAbsorbed(t *testing.T) {
	w := testWorkload(t, 4)
	cfg := pipelineConfig(t, w)
	cfg.WAL.Sync = wal.SyncNone // only Checkpoint's explicit barrier syncs
	// failures Syncs fail with ENOSPC: the checkpoint barrier hitting a
	// full volume.
	failures := 0
	cfg.WAL.FS = fault.NewFS(func(op fault.Op, _ string) error {
		switch {
		case op == fault.OpFreeSpace:
			return errors.ErrUnsupported // no probe
		case op == fault.OpSync && failures > 0:
			failures--
			return fmt.Errorf("sync: %w", syscall.ENOSPC)
		}
		return nil
	})
	cfg.CheckpointEvery = 3

	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:2] {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	failures = 1 // batch 3 triggers a checkpoint whose barrier ENOSPCs
	if err := p.Ingest(w.Batches[2]); err != nil {
		t.Fatalf("checkpoint ENOSPC poisoned the batch: %v", err)
	}
	col := p.Collector()
	if got := col.Get(stats.CtrServeCheckpoints); got != 0 {
		t.Fatalf("checkpoint was cut despite ENOSPC: %d", got)
	}
	// Space is back: the next batch retries the checkpoint.
	if err := p.Ingest(w.Batches[3]); err != nil {
		t.Fatal(err)
	}
	if got := col.Get(stats.CtrServeCheckpoints); got != 1 {
		t.Fatalf("checkpoint not retried after space returned: %d", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
