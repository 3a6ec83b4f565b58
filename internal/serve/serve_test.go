package serve

import (
	"context"
	"errors"
	"io"
	"math"
	"path/filepath"
	"testing"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// testWorkload builds a small deterministic streaming run: a synthetic
// graph, half loaded as warmup, the rest streamed in nBatches mixed
// add/delete batches.
func testWorkload(t *testing.T, nBatches int) *stream.Workload {
	t.Helper()
	const nv = 64
	edges := make([]graph.Edge, 0, 320)
	for i := 0; i < 320; i++ {
		src := uint32((i * 7) % nv)
		dst := uint32((i*13 + 5) % nv)
		if src == dst {
			dst = (dst + 1) % nv
		}
		edges = append(edges, graph.Edge{Src: src, Dst: dst, Weight: float32(1 + i%9)})
	}
	return stream.Build(edges, nv, stream.Config{
		WarmupFraction: 0.5,
		BatchSize:      20,
		AddFraction:    0.75,
		NumBatches:     nBatches,
		Seed:           11,
	})
}

func bootstrapFrom(w *stream.Workload) func() (*tdgraph.Session, error) {
	return func() (*tdgraph.Session, error) {
		return tdgraph.NewSession(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices, tdgraph.SessionOptions{})
	}
}

func pipelineConfig(t *testing.T, w *stream.Workload) PipelineConfig {
	t.Helper()
	return PipelineConfig{
		Bootstrap:       bootstrapFrom(w),
		Algorithm:       tdgraph.NewSSSP(0),
		WAL:             wal.Options{Dir: t.TempDir(), Sync: wal.SyncEachBatch},
		CheckpointPath:  filepath.Join(t.TempDir(), "ckpt.tds"),
		CheckpointEvery: 3,
	}
}

func statesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// referenceStates applies the whole workload directly to a session —
// the durable path must land on exactly these states.
func referenceStates(t *testing.T, w *stream.Workload) []float64 {
	t.Helper()
	s, err := bootstrapFrom(w)()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches {
		if _, err := s.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return append([]float64(nil), s.States()...)
}

// TestPipelineRestartResumes: a pipeline closed cleanly and reopened
// over the same directories resumes at the right sequence and finishes
// with states byte-identical to an uninterrupted run.
func TestPipelineRestartResumes(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(t, w)
	cfg := pipelineConfig(t, w)

	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:4] {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := NewPipeline(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if p2.Seq() != 4 {
		t.Fatalf("resumed at seq %d, want 4", p2.Seq())
	}
	for _, b := range w.Batches[4:] {
		if err := p2.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if !statesEqual(p2.Session().States(), want) {
		t.Fatal("resumed run diverged from uninterrupted run")
	}
}

// TestPipelineRecoversFromWALOnly: delete every checkpoint after a run;
// recovery must rebuild purely from bootstrap + full WAL replay.
func TestPipelineRecoversFromWALOnly(t *testing.T) {
	w := testWorkload(t, 5)
	want := referenceStates(t, w)
	cfg := pipelineConfig(t, w)
	cfg.CheckpointPath = "" // no checkpoints at all

	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Seq() != uint64(len(w.Batches)) {
		t.Fatalf("replayed to seq %d, want %d", p2.Seq(), len(w.Batches))
	}
	if got := p2.Collector().Get(stats.CtrWALReplayed); got != uint64(len(w.Batches)) {
		t.Fatalf("replayed %d records, want %d", got, len(w.Batches))
	}
	if !statesEqual(p2.Session().States(), want) {
		t.Fatal("WAL-only recovery diverged")
	}
}

// TestPipelineWALFaultIsNonDurable: a torn write surfaces as an
// *IngestError in the "wal" stage, which the supervisor treats as
// not-yet-durable (safe to re-send).
func TestPipelineWALFaultIsNonDurable(t *testing.T) {
	w := testWorkload(t, 2)
	cfg := pipelineConfig(t, w)
	in, err := fault.Parse("wal-torn:40", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL.FS = in.FS(wal.OSFS{})

	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingErr := p.Ingest(w.Batches[0])
	if ingErr == nil {
		ingErr = p.Ingest(w.Batches[1])
	}
	if ingErr == nil {
		t.Fatal("torn write never surfaced")
	}
	var ie *IngestError
	if !errors.As(ingErr, &ie) {
		t.Fatalf("untyped ingest error %T: %v", ingErr, ingErr)
	}
	if ie.Stage != "wal" || ie.Durable() {
		t.Fatalf("stage %q durable=%v, want non-durable wal stage", ie.Stage, ie.Durable())
	}
	if !errors.Is(ingErr, fault.ErrInjected) {
		t.Fatalf("lost the injected sentinel: %v", ingErr)
	}
}

// syncFailFS fails wal File.Sync while *failures > 0 — a transient
// fsync error on the WAL's post-write path.
type syncFailFS struct {
	wal.FS
	failures *int
}

func (f syncFailFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &syncFailFile{File: file, failures: f.failures}, nil
}

type syncFailFile struct {
	wal.File
	failures *int
}

func (f *syncFailFile) Sync() error {
	if *f.failures > 0 {
		*f.failures--
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// TestPipelineSyncFailureNotReSent: a post-append fsync failure is the
// "wal-sync" stage and counts as durable-class — the record is in the
// log file, so recovery resurrects the batch and re-sending it would
// double-apply. A fresh pipeline over the same directories must
// already hold it.
func TestPipelineSyncFailureNotReSent(t *testing.T) {
	w := testWorkload(t, 5)
	want := referenceStates(t, w)
	cfg := pipelineConfig(t, w)
	failures := 0
	cfg.WAL.FS = syncFailFS{FS: wal.OSFS{}, failures: &failures}

	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:2] {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}

	failures = 1
	ingErr := p.Ingest(w.Batches[2])
	var ie *IngestError
	if !errors.As(ingErr, &ie) {
		t.Fatalf("untyped ingest error %T: %v", ingErr, ingErr)
	}
	if ie.Stage != "wal-sync" || !ie.Durable() {
		t.Fatalf("stage %q durable=%v, want durable wal-sync stage", ie.Stage, ie.Durable())
	}
	var nd *wal.NotDurableError
	if !errors.As(ingErr, &nd) {
		t.Fatalf("wal.NotDurableError lost through the ingest wrapper: %v", ingErr)
	}

	// Supervisor semantics: abandon the pipeline, recover. The batch
	// whose barrier failed must come back via replay, not a re-send.
	p2, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Seq() != 3 {
		t.Fatalf("recovered seq %d, want 3 (failed-barrier batch replayed)", p2.Seq())
	}
	for _, b := range w.Batches[3:] {
		if err := p2.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if !statesEqual(p2.Session().States(), want) {
		t.Fatal("recovery after fsync failure diverged from reference")
	}
}

// TestServerSyncFailureRestarts: the serve loop converts a transient
// fsync failure into one supervised restart — no poisoning, no
// double-apply — and still lands on the reference states.
func TestServerSyncFailureRestarts(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(t, w)
	cfg := pipelineConfig(t, w)
	failures := 1 // the very first WAL barrier fails, then the disk heals
	cfg.WAL.FS = syncFailFS{FS: wal.OSFS{}, failures: &failures}

	srv := NewServer(ServerConfig{
		Pipeline: cfg,
		Queue:    QueueConfig{Capacity: 4, MaxBatchUpdates: 1},
	})
	if err := srv.Run(context.Background(), NewSliceSource(w.Batches)); err != nil {
		t.Fatal(err)
	}
	col := srv.Collector()
	if got := col.Get(stats.CtrServeRestarts); got != 1 {
		t.Fatalf("restarts = %d, want 1", got)
	}
	if got := col.Get(stats.CtrServePoisoned); got != 0 {
		t.Fatalf("poisoned %d batches; a wal-sync failure must never poison", got)
	}
	if !statesEqual(srv.Pipeline().Session().States(), want) {
		t.Fatal("states after supervised fsync-failure restart diverged")
	}
}

// TestNewPipelineRejectsRecoveryGap: when every checkpoint generation
// is gone but WAL retention already truncated the prefix those
// checkpoints covered, recovery must refuse loudly instead of serving
// silently wrong state.
func TestNewPipelineRejectsRecoveryGap(t *testing.T) {
	w := testWorkload(t, 6)
	cfg := pipelineConfig(t, w)
	cfg.WAL.SegmentBytes = 1 // seal every record so retention can advance

	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches {
		if err := p.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Sanity: with its checkpoints intact the state reopens fine.
	p2, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Seq() != uint64(len(w.Batches)) {
		t.Fatalf("reopened at seq %d, want %d", p2.Seq(), len(w.Batches))
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	// Every generation lost: the checkpointless bootstrap cannot bridge
	// the retained log's truncated prefix.
	cfg.CheckpointPath = ""
	_, err = NewPipeline(cfg)
	if !errors.Is(err, ErrRecoveryGap) {
		t.Fatalf("bootstrap over a truncated WAL returned %v, want ErrRecoveryGap", err)
	}
}

// flakySource fails each batch read a fixed number of times before
// serving it — the retry layer must absorb exactly that many failures.
type flakySource struct {
	inner     Source
	failures  int // failures to serve per batch
	remaining int
}

func (f *flakySource) Next(ctx context.Context) ([]graph.Update, error) {
	if f.remaining > 0 {
		f.remaining--
		return nil, errors.New("flaky: transient delivery failure")
	}
	b, err := f.inner.Next(ctx)
	f.remaining = f.failures
	return b, err
}

func TestRetrySourceAbsorbsTransientFailures(t *testing.T) {
	w := testWorkload(t, 4)
	clock := newFakeClock()
	flaky := &flakySource{inner: NewSliceSource(w.Batches), failures: 2, remaining: 2}
	src := NewRetrySource(flaky, NewBackoff(1), NewBreaker(10, 0, clock), clock, 1)

	var got int
	for {
		b, err := src.Next(context.Background())
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatal("empty batch")
		}
		got++
	}
	if got != len(w.Batches) {
		t.Fatalf("delivered %d batches, want %d", got, len(w.Batches))
	}
	// 2 failures per batch read, plus the EOF read's preceding failures.
	if r := src.Retries(); r != uint64(2*(len(w.Batches)+1)) {
		t.Fatalf("retries = %d, want %d", r, 2*(len(w.Batches)+1))
	}
}

func TestRetrySourceGivesUp(t *testing.T) {
	clock := newFakeClock()
	dead := FuncSource(func(context.Context) ([]graph.Update, error) {
		return nil, errors.New("down hard")
	})
	src := NewRetrySource(dead, NewBackoff(1), NewBreaker(100, 0, clock), clock, 1)
	src.MaxAttempts = 4
	_, err := src.Next(context.Background())
	if !errors.Is(err, ErrSourceGivenUp) {
		t.Fatalf("want ErrSourceGivenUp, got %v", err)
	}
	if src.Retries() != 4 {
		t.Fatalf("retries = %d, want 4", src.Retries())
	}
}

// TestRetrySourceBreakerGates: once the breaker opens, the source waits
// out the reset timeout instead of burning attempts.
func TestRetrySourceBreakerGates(t *testing.T) {
	clock := newFakeClock()
	calls := 0
	dead := FuncSource(func(context.Context) ([]graph.Update, error) {
		calls++
		return nil, errors.New("down")
	})
	br := NewBreaker(2, 30*time.Second, clock)
	src := NewRetrySource(dead, NewBackoff(1), br, clock, 1)
	src.MaxAttempts = 6
	_, err := src.Next(context.Background())
	if !errors.Is(err, ErrSourceGivenUp) {
		t.Fatal(err)
	}
	if br.Opens() == 0 {
		t.Fatal("breaker never opened")
	}
	// Open-state waits show up as ResetTimeout sleeps on the fake clock.
	var gated bool
	for _, d := range clock.slept {
		if d == br.ResetTimeout {
			gated = true
		}
	}
	if !gated {
		t.Fatalf("no reset-timeout wait recorded: %v", clock.slept)
	}
	if calls >= 7 {
		t.Fatalf("breaker did not reduce pressure: %d calls", calls)
	}
}

// TestServerEndToEnd: the full service — retrying source, bounded
// queue, durable pipeline — lands on the reference states and counts
// its work.
func TestServerEndToEnd(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(t, w)
	clock := newFakeClock()
	flaky := &flakySource{inner: NewSliceSource(w.Batches), failures: 1, remaining: 1}
	src := NewRetrySource(flaky, NewBackoff(1), NewBreaker(5, 0, clock), clock, 1)

	srv := NewServer(ServerConfig{
		Pipeline: pipelineConfig(t, w),
		// MaxBatchUpdates 1 forbids coalescing so the ingested count is
		// exact; granularity growth has its own tests.
		Queue: QueueConfig{Capacity: 4, MaxBatchUpdates: 1},
	})
	if err := srv.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	col := srv.Collector()
	if got := col.Get(stats.CtrServeIngested); got != uint64(len(w.Batches)) {
		t.Fatalf("ingested %d, want %d", got, len(w.Batches))
	}
	if col.Get(stats.CtrServeRetries) == 0 {
		t.Fatal("source retries not folded into stats")
	}
	if !statesEqual(srv.Pipeline().Session().States(), want) {
		t.Fatal("served states diverged from reference")
	}
}

// TestServerGracefulCancel: cancelling the context stops admission,
// drains the queue, and Run returns nil with durable state on disk.
func TestServerGracefulCancel(t *testing.T) {
	w := testWorkload(t, 6)
	cfg := pipelineConfig(t, w)

	ctx, cancel := context.WithCancel(context.Background())
	fed := 0
	src := FuncSource(func(ctx context.Context) ([]graph.Update, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if fed >= 3 {
			cancel() // simulate SIGINT mid-stream
			return nil, ctx.Err()
		}
		b := w.Batches[fed]
		fed++
		return b, nil
	})

	srv := NewServer(ServerConfig{Pipeline: cfg, Queue: QueueConfig{Capacity: 4}})
	if err := srv.Run(ctx, src); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}

	// Everything admitted before the cancel is durable: a fresh pipeline
	// resumes exactly there.
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seq() != 3 {
		t.Fatalf("recovered seq %d, want 3", p.Seq())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerRestartBudget: persistent durable-stage failures (here a
// checkpoint directory that never works) consume the restart budget and
// surface ErrTooManyRestarts.
func TestServerRestartBudget(t *testing.T) {
	w := testWorkload(t, 6)
	cfg := pipelineConfig(t, w)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "missing-dir", "ckpt.tds")
	cfg.CheckpointEvery = 1 // every batch trips the broken checkpointer

	srv := NewServer(ServerConfig{
		Pipeline:    cfg,
		Queue:       QueueConfig{Capacity: 4},
		MaxRestarts: 2,
	})
	err := srv.Run(context.Background(), NewSliceSource(w.Batches))
	if !errors.Is(err, ErrTooManyRestarts) {
		t.Fatalf("want ErrTooManyRestarts, got %v", err)
	}
	if got := srv.Collector().Get(stats.CtrServeRestarts); got != 2 {
		t.Fatalf("restarts = %d, want 2", got)
	}
}

// TestServerPoisonsUndeliverableBatch: a WAL that always fails keeps
// every batch non-durable; the supervisor re-attempts then poisons each
// batch and the server still drains cleanly.
func TestServerPoisonsUndeliverableBatch(t *testing.T) {
	w := testWorkload(t, 3)
	cfg := pipelineConfig(t, w)
	in, err := fault.Parse("disk-full:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WAL.FS = in.FS(wal.OSFS{})
	cfg.CheckpointPath = "" // keep the failure surface to the WAL

	srv := NewServer(ServerConfig{
		Pipeline:         cfg,
		Queue:            QueueConfig{Capacity: 4},
		MaxBatchFailures: 2,
	})
	err = srv.Run(context.Background(), NewSliceSource(w.Batches))
	if err != nil && !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("unexpected error class: %v", err)
	}
	if got := srv.Collector().Get(stats.CtrServePoisoned); got != uint64(len(w.Batches)) {
		t.Fatalf("poisoned %d, want %d", got, len(w.Batches))
	}
}
