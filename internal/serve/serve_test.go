package serve

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/enginetest"
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

// sessionOpts are the options every session under test is built with:
// two workers keep the engine's counters reproducible; its states do
// not depend on the worker count.
var sessionOpts = tdgraph.SessionOptions{Cores: 2}

func bootstrapFrom(w *stream.Workload) func() (*tdgraph.Session, error) {
	return func() (*tdgraph.Session, error) {
		return tdgraph.NewSession(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices, sessionOpts)
	}
}

func pipelineConfig(t *testing.T, w *stream.Workload) PipelineConfig {
	t.Helper()
	return PipelineConfig{
		Bootstrap:       bootstrapFrom(w),
		Algorithm:       tdgraph.NewSSSP(0),
		SessionOptions:  sessionOpts,
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

// referenceStates streams the whole workload through the functional
// topology-driven engine, which starts no worker pool — the durable
// path must land on exactly these states, so every comparison with them
// is cross-engine as well as cross-crash.
func referenceStates(w *stream.Workload) []float64 {
	ref := enginetest.NewRunner(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices, enginetest.TopologyDriven)
	for _, b := range w.Batches {
		ref.Apply(b)
	}
	return ref.S
}

// TestPipelineRestartResumes: a pipeline closed cleanly and reopened
// over the same directories resumes at the right sequence and finishes
// with states byte-identical to an uninterrupted run. The files it
// left, checkpoint and WAL segment alike, are owner-only.
func TestPipelineRestartResumes(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(w)
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
	for _, path := range []string{cfg.CheckpointPath, filepath.Join(cfg.WAL.Dir, "00000000000000000001.wal")} {
		if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o600 {
			t.Fatalf("%s: %v (err %v), want mode -rw-------", path, st, err)
		}
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
	want := referenceStates(w)
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

// syncFailFS fails a WAL segment's Sync while *failures > 0 — a
// transient fsync error on the WAL's post-write path.
type syncFailFS struct {
	wal.FS
	failures *int
}

func (f syncFailFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil || !strings.HasSuffix(path, ".wal") {
		return file, err
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
	want := referenceStates(w)
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
