package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"syscall"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// shedController returns a controller already escalated to the given
// pressure level, by feeding it enough over-target observations.
func shedController(t *testing.T, level PressureLevel) *SLOController {
	t.Helper()
	c := NewSLOController(SLOConfig{Target: 10 * time.Millisecond})
	for i := 0; i < 64 && c.Level() < level; i++ {
		c.Observe(100*time.Millisecond, 0, 0)
	}
	if c.Level() != level {
		t.Fatalf("could not drive controller to level %v (at %v)", level, c.Level())
	}
	return c
}

// TestSLOControllerEscalatesAndRelaxes: sustained over-target latency
// climbs the ladder one rung per streak; sustained healthy latency
// climbs back down, more slowly.
func TestSLOControllerEscalatesAndRelaxes(t *testing.T) {
	c := NewSLOController(SLOConfig{Target: 10 * time.Millisecond, EscalateAfter: 4, RelaxAfter: 8})
	if c.Level() != PressureNone {
		t.Fatalf("fresh controller at %v", c.Level())
	}
	// Three hot observations are not a streak yet.
	for i := 0; i < 3; i++ {
		c.Observe(50*time.Millisecond, 0, 0)
	}
	if c.Level() != PressureNone {
		t.Fatalf("escalated after only 3 hot observations: %v", c.Level())
	}
	c.Observe(50*time.Millisecond, 0, 0)
	if c.Level() != PressureCoalesce {
		t.Fatalf("4th hot observation: level %v, want coalesce", c.Level())
	}
	for i := 0; i < 4; i++ {
		c.Observe(50*time.Millisecond, 0, 0)
	}
	if c.Level() != PressureShed {
		t.Fatalf("8th hot observation: level %v, want shed", c.Level())
	}
	if ra := c.RetryAfter(); ra < c.cfg.Target/4 || ra > 4*c.cfg.Target {
		t.Fatalf("retry-after %v outside [target/4, 4*target]", ra)
	}

	// Healthy again: the EWMA has to decay below target/2, then two
	// relax streaks bring it back to none. Bounded loop, deterministic.
	for i := 0; i < 256 && c.Level() != PressureNone; i++ {
		c.Observe(time.Millisecond, 0, 0)
	}
	if c.Level() != PressureNone {
		t.Fatalf("controller never relaxed: %v", c.Level())
	}
	if ra := c.RetryAfter(); ra != 0 {
		t.Fatalf("retry-after %v below shed, want 0", ra)
	}
}

// TestSLOControllerQueueDepthEscalates: a near-full queue is a hot
// signal even when latency looks fine.
func TestSLOControllerQueueDepthEscalates(t *testing.T) {
	c := NewSLOController(SLOConfig{Target: 10 * time.Millisecond, EscalateAfter: 2})
	for i := 0; i < 2; i++ {
		c.Observe(time.Millisecond, 15, 16) // depth at 94% of capacity
	}
	if c.Level() != PressureCoalesce {
		t.Fatalf("deep queue did not escalate: %v", c.Level())
	}
}

// TestSLOControllerNilSafe: a nil controller (SLO disabled) is inert.
func TestSLOControllerNilSafe(t *testing.T) {
	var c *SLOController
	if got := NewSLOController(SLOConfig{}); got != nil {
		t.Fatalf("zero target built a controller: %+v", got)
	}
	c.Observe(time.Second, 10, 10) // must not panic
	if c.Level() != PressureNone || c.RetryAfter() != 0 {
		t.Fatal("nil controller is not inert")
	}
}

// TestQueueSLOShedsWithBacklog: at PressureShed the queue refuses new
// work while a backlog exists — but an empty queue still admits, so a
// lone trickle of traffic is never starved outright.
func TestQueueSLOShedsWithBacklog(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 8, SLO: shedController(t, PressureShed)})
	if err := q.Put(mkBatch(2, 0)); err != nil {
		t.Fatalf("empty queue refused under shed posture: %v", err)
	}
	err := q.Put(mkBatch(2, 10))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("backlogged queue admitted under shed posture: %v", err)
	}
	st := q.Stats()
	if st.Shed != 1 || st.ShedSLO != 1 {
		t.Fatalf("stats %+v, want shed=1 shed_slo=1", st)
	}
}

// TestQueueSLOCoalescesEarly: at PressureCoalesce the queue merges at
// half capacity instead of waiting until it is full.
func TestQueueSLOCoalescesEarly(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 4, SLO: shedController(t, PressureCoalesce)})
	q.Put(mkBatch(2, 0))
	q.Put(mkBatch(2, 100)) // depth 2 of 4: the coalescing posture trips
	if err := q.Put(mkBatch(2, 200)); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Coalesced != 1 || st.CoalescedSLO != 1 {
		t.Fatalf("stats %+v, want one SLO-forced coalesce", st)
	}
	if q.Len() != 2 {
		t.Fatalf("depth %d after SLO coalesce, want 2", q.Len())
	}
}

// TestQueueByteBoundOversizedAdmittedAlone: a batch bigger than
// MaxBytes passes through an empty queue alone instead of wedging
// forever; with a backlog the byte bound applies normally.
func TestQueueByteBoundOversizedAdmittedAlone(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 8, Policy: AdmitShed, MaxBytes: 100})
	big := mkBatch(20, 0) // 20 updates = 260 wire bytes > 100
	if err := q.Put(big); err != nil {
		t.Fatalf("oversized batch wedged an empty queue: %v", err)
	}
	if got := q.Bytes(); got != batchBytes(big) {
		t.Fatalf("bytes %d, want %d", got, batchBytes(big))
	}
	// With the oversized batch queued, even a tiny batch breaches.
	if err := q.Put(mkBatch(1, 100)); !errors.Is(err, ErrShed) {
		t.Fatalf("byte-full queue admitted: %v", err)
	}
	if _, err := q.Get(); err != nil {
		t.Fatal(err)
	}
	if q.Bytes() != 0 {
		t.Fatalf("bytes %d after drain, want 0", q.Bytes())
	}
	if err := q.Put(mkBatch(1, 100)); err != nil {
		t.Fatalf("drained queue refused: %v", err)
	}
}

// TestQueueByteBoundShedsWhenMergeCannotHelp: merging concatenates,
// so it frees slots but never bytes — a byte-bound breach collapses
// the backlog and then sheds the newcomer, and admission recovers as
// soon as the consumer drains bytes.
func TestQueueByteBoundShedsWhenMergeCannotHelp(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 100, Policy: AdmitShed, MaxBytes: 5 * updateWireBytes})
	q.Put(mkBatch(2, 0))
	q.Put(mkBatch(2, 100))
	// 52 bytes queued; 13 more lands exactly on the 65-byte bound.
	if err := q.Put(mkBatch(1, 200)); err != nil {
		t.Fatalf("batch landing on the bound refused: %v", err)
	}
	if st := q.Stats(); st.Coalesced != 0 {
		t.Fatalf("merged when the newcomer fit: %+v", st)
	}
	// The next byte would breach. Granularity growth collapses the
	// backlog slot by slot, but bytes stand — the batch sheds.
	if err := q.Put(mkBatch(1, 300)); !errors.Is(err, ErrShed) {
		t.Fatalf("byte-full queue admitted: %v", err)
	}
	if st := q.Stats(); st.Shed != 1 || st.Coalesced == 0 {
		t.Fatalf("stats %+v, want a shed preceded by merges", st)
	}
	// Draining the (merged) backlog frees bytes; admission recovers.
	b, err := q.Get()
	if err != nil || len(b) != 5 {
		t.Fatalf("merged backlog len %d err %v, want all 5 updates", len(b), err)
	}
	if err := q.Put(mkBatch(1, 400)); err != nil {
		t.Fatalf("drained queue refused: %v", err)
	}
}

// TestQueueByteBoundRespectsMaxBatchUpdates: when the byte bound would
// allow a merge but MaxBatchUpdates forbids it, the merge must not
// happen — granularity growth never builds a batch past the cap.
func TestQueueByteBoundRespectsMaxBatchUpdates(t *testing.T) {
	q := NewQueue(QueueConfig{
		Capacity: 2, Policy: AdmitShed,
		MaxBatchUpdates: 4,     // 3+3 > 4: merging forbidden
		MaxBytes:        10000, // bytes would happily allow it
	})
	q.Put(mkBatch(3, 0))
	q.Put(mkBatch(3, 100))
	if err := q.Put(mkBatch(1, 200)); !errors.Is(err, ErrShed) {
		t.Fatalf("merge exceeded MaxBatchUpdates: %v", err)
	}
	b, err := q.Get()
	if err != nil || len(b) != 3 {
		t.Fatalf("oldest batch mutated: len %d err %v", len(b), err)
	}
}

// hintedErr is a fake server backpressure error carrying a retry-after
// hint, as BusyError does in the replica layer.
type hintedErr struct{ after time.Duration }

func (e *hintedErr) Error() string                 { return "backpressure" }
func (e *hintedErr) RetryAfterHint() time.Duration { return e.after }

// TestRetrySourceHonorsRetryAfterHint: a failure carrying a
// retry-after hint floors the backoff delay at it.
func TestRetrySourceHonorsRetryAfterHint(t *testing.T) {
	clock := newFakeClock()
	busy := &hintedErr{after: 2 * time.Second}
	calls := 0
	src := FuncSource(func(ctx context.Context) ([]graph.Update, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("refused: %w", busy)
		}
		return mkBatch(1, 0), nil
	})
	backoff := NewBackoff(1)
	backoff.Jitter = 0 // Delay(0) = 50ms, far below the hint
	rs := NewRetrySource(src, backoff, nil, clock, 1)
	if _, err := rs.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(clock.slept) != 1 || clock.slept[0] != 2*time.Second {
		t.Fatalf("slept %v, want exactly the 2s retry-after floor", clock.slept)
	}
	if rs.Retries() != 1 {
		t.Fatalf("retries %d, want 1", rs.Retries())
	}
}

// TestRetrySourceBackoffWinsOverSmallHint: when the scheduled backoff
// already exceeds the hint, the larger delay stands.
func TestRetrySourceBackoffWinsOverSmallHint(t *testing.T) {
	clock := newFakeClock()
	calls := 0
	src := FuncSource(func(ctx context.Context) ([]graph.Update, error) {
		calls++
		if calls == 1 {
			return nil, &hintedErr{after: time.Millisecond}
		}
		return mkBatch(1, 0), nil
	})
	backoff := NewBackoff(1)
	backoff.Jitter = 0
	rs := NewRetrySource(src, backoff, nil, clock, 1)
	if _, err := rs.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(clock.slept) != 1 || clock.slept[0] != 50*time.Millisecond {
		t.Fatalf("slept %v, want the 50ms backoff", clock.slept)
	}
}

// TestRetrySourceNeverRetriesCancellation: context.Canceled — whether
// from the caller's context or bubbled through the source — is not a
// source failure: no retry, no breaker accounting. A shutdown must not
// trip the breaker open for the next session.
func TestRetrySourceNeverRetriesCancellation(t *testing.T) {
	clock := newFakeClock()
	br := NewBreaker(1, time.Second, clock) // one failure would open it
	calls := 0
	src := FuncSource(func(ctx context.Context) ([]graph.Update, error) {
		calls++
		return nil, fmt.Errorf("submit interrupted: %w", context.Canceled)
	})
	rs := NewRetrySource(src, nil, br, clock, 1)
	_, err := rs.Next(context.Background())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled through untouched", err)
	}
	if calls != 1 || rs.Retries() != 0 {
		t.Fatalf("calls=%d retries=%d, want a single attempt and no retries", calls, rs.Retries())
	}
	if br.state != BreakerClosed || br.Opens() != 0 {
		t.Fatalf("cancellation tripped the breaker: %v opens=%d", br.state, br.Opens())
	}

	// A caller-cancelled context short-circuits the same way.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fail := FuncSource(func(ctx context.Context) ([]graph.Update, error) {
		return nil, errors.New("transport down")
	})
	rs2 := NewRetrySource(fail, nil, NewBreaker(1, time.Second, clock), clock, 1)
	if _, err := rs2.Next(ctx); err == nil {
		t.Fatal("cancelled context retried to success?")
	}
	if rs2.Retries() != 0 {
		t.Fatalf("cancelled context produced %d retries", rs2.Retries())
	}
}

// TestRetrySourceDeadlineFeedsBreaker: genuine timeouts (including
// context.DeadlineExceeded surfaced by a transport) ARE source
// failures — retried, counted, breaker-fed.
func TestRetrySourceDeadlineFeedsBreaker(t *testing.T) {
	clock := newFakeClock()
	br := NewBreaker(3, time.Second, clock)
	calls := 0
	src := FuncSource(func(ctx context.Context) ([]graph.Update, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("ack wait: %w", context.DeadlineExceeded)
		}
		return nil, io.EOF
	})
	rs := NewRetrySource(src, nil, br, clock, 1)
	if _, err := rs.Next(context.Background()); !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if rs.Retries() != 1 {
		t.Fatalf("retries %d, want 1 (the timeout was retried)", rs.Retries())
	}
}

// TestPipelineDeadlineAdmitExpiry: an already-expired deadline refuses
// the batch before any I/O — non-durable, typed, counted — and the
// same batch succeeds once given budget.
func TestPipelineDeadlineAdmitExpiry(t *testing.T) {
	w := testWorkload(t, 2)
	cfg := pipelineConfig(t, w)
	clk := newFakeClock()
	cfg.Clock = clk
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	_, err = p.Append([][]byte{wal.EncodeBatch(w.Batches[0])}, clk.Now()) // expired on arrival
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
	if seq, err := p.Append([][]byte{wal.EncodeBatch(w.Batches[0])}, clk.Now().Add(time.Hour)); err != nil || seq != 1 {
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
	cfg.CheckpointPath = "" // retention can free nothing: pressure must hold

	inj := fault.New(7)
	inj.Arm(fault.LowSpace, 1600) // probe-only volume: 1600 bytes capacity
	cfg.WAL.FS = inj.FS(wal.OSFS{})
	cfg.DiskLowWater = 600
	cfg.DiskHighWater = 1200

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
	spacer, ok := cfg.WAL.FS.(fault.DiskSpacer)
	if !ok {
		t.Fatal("fault FS lost the DiskSpacer seam")
	}
	spacer.AddDiskSpace(1 << 20)
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

// TestPipelineENOSPCAppendDegradesNotPoisons: a hard ENOSPC mid-append
// persists nothing, degrades to read-only with a retryable typed
// error, and the SAME sequence succeeds after space frees — never
// poisoned, never double-applied.
func TestPipelineENOSPCAppendDegradesNotPoisons(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(w)
	cfg := pipelineConfig(t, w)
	cfg.CheckpointPath = ""

	inj := fault.New(7)
	inj.Arm(fault.NoSpace, 900) // writes beyond 900 bytes fail ENOSPC
	cfg.WAL.FS = inj.FS(wal.OSFS{})

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
	cfg.WAL.FS.(fault.DiskSpacer).AddDiskSpace(1 << 20)
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

// enospcSyncFS fails wal File.Sync with ENOSPC while *failures > 0 —
// the checkpoint barrier hitting a full volume.
type enospcSyncFS struct {
	wal.FS
	failures *int
}

func (f enospcSyncFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &enospcSyncFile{File: file, failures: f.failures}, nil
}

type enospcSyncFile struct {
	wal.File
	failures *int
}

func (f *enospcSyncFile) Sync() error {
	if *f.failures > 0 {
		*f.failures--
		return fmt.Errorf("sync: %w", syscall.ENOSPC)
	}
	return f.File.Sync()
}

// TestPipelineCheckpointENOSPCAbsorbed: a checkpoint that cannot be
// cut for lack of space must not fail the batch — it is already
// durable and applied — and the checkpoint is retried on the next
// batch once space returns.
func TestPipelineCheckpointENOSPCAbsorbed(t *testing.T) {
	w := testWorkload(t, 4)
	cfg := pipelineConfig(t, w)
	cfg.WAL.Sync = wal.SyncNone // only Checkpoint's explicit barrier syncs
	failures := 0
	cfg.WAL.FS = enospcSyncFS{FS: wal.OSFS{}, failures: &failures}
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

// TestServerShedsUnderDiskPressure: the serve loop treats a
// disk-pressure refusal as shed work — no poisoning, no restart — and
// the run ends cleanly.
func TestServerShedsUnderDiskPressure(t *testing.T) {
	w := testWorkload(t, 6)
	cfg := pipelineConfig(t, w)
	cfg.CheckpointPath = ""
	inj := fault.New(7)
	inj.Arm(fault.NoSpace, 900)
	cfg.WAL.FS = inj.FS(wal.OSFS{})

	srv := NewServer(ServerConfig{
		Pipeline: cfg,
		Queue:    QueueConfig{Capacity: 4, MaxBatchUpdates: 1},
	})
	if err := srv.Run(context.Background(), NewSliceSource(w.Batches)); err != nil {
		t.Fatalf("disk pressure killed the server: %v", err)
	}
	col := srv.Collector()
	if got := col.Get(stats.CtrServePoisoned); got != 0 {
		t.Fatalf("%d batches poisoned under disk pressure, want 0", got)
	}
	if got := col.Get(stats.CtrServeRestarts); got != 0 {
		t.Fatalf("%d restarts under disk pressure, want 0", got)
	}
	if got := col.Get(stats.CtrServeDiskPressure); got == 0 {
		t.Fatal("no disk-pressure refusals counted")
	}
}
