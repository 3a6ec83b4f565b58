package replica

import (
	"errors"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// testWorkload mirrors the serve suite's deterministic streaming run.
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

// nodeConfig builds a pipeline config rooted at dir, so a node can be
// "restarted" by building another config over the same directories.
func nodeConfig(w *stream.Workload, dir string) serve.PipelineConfig {
	return serve.PipelineConfig{
		Bootstrap:       bootstrapFrom(w),
		Algorithm:       tdgraph.NewSSSP(0),
		WAL:             wal.Options{Dir: dir, Sync: wal.SyncEachBatch, SegmentBytes: 4096},
		CheckpointPath:  filepath.Join(dir, "ckpt.tds"),
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

// startFollower builds a follower over dir and serves one session on a
// fresh pipe, returning the primary-side conn and the session result.
func startFollower(t *testing.T, w *stream.Workload, dir string) (*Follower, net.Conn, chan error) {
	t.Helper()
	fl, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, dir)})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	pside, fside := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- fl.Serve(fside) }()
	return fl, pside, done
}

// asyncConn decouples Write from the peer's reads with an unbounded
// in-order queue, giving net.Pipe the buffering a kernel TCP socket
// has — needed when a fault class (dup) makes one logical frame
// produce several writes before the peer drains any.
type asyncConn struct {
	net.Conn
	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte
	closed bool
}

func newAsyncConn(c net.Conn) *asyncConn {
	a := &asyncConn{Conn: c}
	a.cond = sync.NewCond(&a.mu)
	go a.pump()
	return a
}

func (a *asyncConn) pump() {
	for {
		a.mu.Lock()
		for len(a.queue) == 0 && !a.closed {
			a.cond.Wait()
		}
		if len(a.queue) == 0 && a.closed {
			a.mu.Unlock()
			a.Conn.Close()
			return
		}
		buf := a.queue[0]
		a.queue = a.queue[1:]
		a.mu.Unlock()
		if _, err := a.Conn.Write(buf); err != nil {
			return
		}
	}
}

func (a *asyncConn) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0, net.ErrClosed
	}
	a.queue = append(a.queue, append([]byte(nil), p...))
	a.cond.Signal()
	return len(p), nil
}

func (a *asyncConn) Close() error {
	a.mu.Lock()
	a.closed = true
	a.cond.Signal()
	a.mu.Unlock()
	return nil
}

// ingest runs one batch down the leader path Node uses (append, quorum
// round, apply), for tests that wire a Pipeline and a Primary by hand.
func ingest(prim *Primary, pipe *serve.Pipeline, b []graph.Update) error {
	_, err := ingestBy(prim, pipe, b, time.Time{})
	return err
}

// ingestBy is ingest with a deadline and the outcome: it hands
// Primary.Ingest the batch and its payload the way a client session does.
func ingestBy(prim *Primary, pipe *serve.Pipeline, b []graph.Update, deadline time.Time) (IngestOutcome, error) {
	return prim.Ingest(pipe, [][]byte{wal.EncodeBatch(b)}, [][]graph.Update{b}, deadline)
}

// TestReplicatedIngestReachesQuorum: a primary with two followers
// drives the full workload; all three replicas end with states
// byte-identical to the uninterrupted reference.
func TestReplicatedIngestReachesQuorum(t *testing.T) {
	w := testWorkload(t, 8)
	want := referenceStates(t, w)

	pdir := t.TempDir()
	pcfg := nodeConfig(w, pdir)
	col := stats.NewCollector()
	pcfg.Collector = col

	f1, c1, d1 := startFollower(t, w, t.TempDir())
	f2, c2, d2 := startFollower(t, w, t.TempDir())

	prim := NewPrimary(PrimaryConfig{Term: 1, ClusterSize: 3, WAL: pcfg.WAL, Collector: col})
	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 1); err != nil {
		t.Fatal(err)
	}
	if err := prim.AddFollower(c1); err != nil {
		t.Fatal(err)
	}
	if err := prim.AddFollower(c2); err != nil {
		t.Fatal(err)
	}
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.SetRetentionAdvisor(prim)
	for i, b := range w.Batches {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatalf("Ingest %d: %v", i, err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	prim.Close()
	<-d1
	<-d2

	n := uint64(len(w.Batches))
	if f1.Seq() != n || f2.Seq() != n {
		t.Fatalf("followers at seq %d/%d, want %d", f1.Seq(), f2.Seq(), n)
	}
	if !statesEqual(pipe.Session().States(), want) {
		t.Fatal("primary states diverged from reference")
	}
	if !statesEqual(f1.Pipeline().Session().States(), want) {
		t.Fatal("follower 1 states diverged from reference")
	}
	if !statesEqual(f2.Pipeline().Session().States(), want) {
		t.Fatal("follower 2 states diverged from reference")
	}
	if got := col.Get(stats.CtrReplAcks); got != 2*n {
		t.Fatalf("acks counter = %d, want %d", got, 2*n)
	}
	if col.Get(stats.CtrReplShippedRecords) != 2*n {
		t.Fatalf("shipped counter = %d, want %d", col.Get(stats.CtrReplShippedRecords), 2*n)
	}
	// Lag is measured before shipping closes the gap: an in-step
	// follower trails by exactly the record being replicated, never 0
	// (that would mean the gauge measures after catch-up) and never an
	// underflowed huge value.
	if got := col.Get(stats.CtrReplLag); got != 1 {
		t.Fatalf("lag gauge = %d, want 1", got)
	}
	f1.Pipeline().Close()
	f2.Pipeline().Close()
}

// TestLateJoinerCatchesUpFromWAL: a follower attached mid-stream is
// fed the backlog from the primary's WAL segments before live records.
func TestLateJoinerCatchesUpFromWAL(t *testing.T) {
	w := testWorkload(t, 8)
	want := referenceStates(t, w)

	pdir := t.TempDir()
	col := stats.NewCollector()
	pcfg := nodeConfig(w, pdir)
	pcfg.Collector = col
	// Keep the whole log so catch-up can reach back to seq 1.
	pcfg.CheckpointEvery = -1

	f1, c1, d1 := startFollower(t, w, t.TempDir())
	prim := NewPrimary(PrimaryConfig{Term: 1, ClusterSize: 2, WAL: pcfg.WAL, Collector: col})
	if err := prim.AddFollower(c1); err != nil {
		t.Fatal(err)
	}
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.SetRetentionAdvisor(prim)
	for _, b := range w.Batches[:5] {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatal(err)
		}
	}

	// Late joiner: handshakes at seq 0, catches up on the next ingest.
	f2, c2, d2 := startFollower(t, w, t.TempDir())
	if err := prim.AddFollower(c2); err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[5:] {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	prim.Close()
	<-d1
	<-d2

	if !statesEqual(f2.Pipeline().Session().States(), want) {
		t.Fatal("late joiner states diverged from reference")
	}
	if got := col.Get(stats.CtrReplCatchupRecords); got != 5 {
		t.Fatalf("catch-up records = %d, want 5", got)
	}
	f1.Pipeline().Close()
	f2.Pipeline().Close()
}

// TestDuplicatedFramesReAcked: a wire that duplicates every frame
// still converges — followers re-ack duplicates without re-applying,
// and the primary skips stale acks.
func TestDuplicatedFramesReAcked(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(t, w)

	pdir := t.TempDir()
	col := stats.NewCollector()
	pcfg := nodeConfig(w, pdir)
	pcfg.Collector = col

	fl, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, t.TempDir())})
	if err != nil {
		t.Fatal(err)
	}
	pside, fside := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- fl.Serve(fside) }()

	inj := fault.New(99)
	lossy := inj.Conn(newAsyncConn(pside))

	prim := NewPrimary(PrimaryConfig{Term: 1, ClusterSize: 2, WAL: pcfg.WAL, Collector: col})
	if err := prim.AddFollower(lossy); err != nil {
		t.Fatal(err)
	}
	// Arm after the handshake: from here every primary→follower frame
	// is sent twice.
	inj.Arm(fault.NetDup, 1)
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.SetRetentionAdvisor(prim)
	for i, b := range w.Batches {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatalf("Ingest %d under dup wire: %v", i, err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	prim.Close()
	<-done

	if !statesEqual(fl.Pipeline().Session().States(), want) {
		t.Fatal("follower states diverged under duplicated frames")
	}
	if fl.Pipeline().Collector().Get(stats.CtrReplDupFrames) == 0 {
		t.Fatal("dup-frame counter never incremented")
	}
	fl.Pipeline().Close()
}

// TestQuorumLostHaltsPrimary walks Primary.Ingest's three outcomes: a
// batch with quorum is QuorumDurable; one that cannot reach quorum (no
// follower attached) or whose deadline already expired is refused
// NotLogged before the log moves; and when the followers die under it
// the batch is LoggedNotQuorum wrapping ErrQuorumLost — in the leader's
// WAL, never applied, never acknowledged.
func TestQuorumLostHaltsPrimary(t *testing.T) {
	w := testWorkload(t, 4)
	pdir := t.TempDir()
	pcfg := nodeConfig(w, pdir)

	f1, c1, d1 := startFollower(t, w, t.TempDir())
	prim := NewPrimary(PrimaryConfig{Term: 1, ClusterSize: 3, WAL: pcfg.WAL})
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.SetRetentionAdvisor(prim)
	// Nobody attached yet: logging the batch could only strand it.
	if out, err := ingestBy(prim, pipe, w.Batches[0], time.Time{}); out != NotLogged || !errors.Is(err, ErrQuorumLost) || pipe.Seq() != 0 {
		t.Fatalf("ingest with no follower attached: outcome %d, seq %d, err %v; want NotLogged", out, pipe.Seq(), err)
	}
	if err := prim.AddFollower(c1); err != nil {
		t.Fatal(err)
	}
	if out, err := ingestBy(prim, pipe, w.Batches[0], time.Time{}); err != nil || out != QuorumDurable {
		t.Fatalf("ingest with quorum: outcome %d, err %v", out, err)
	}
	out, err := ingestBy(prim, pipe, w.Batches[1], time.Now().Add(-time.Second))
	if out != NotLogged || !errors.Is(err, serve.ErrDeadline) || pipe.Seq() != 1 {
		t.Fatalf("expired deadline: outcome %d, seq %d, err %v; want NotLogged at seq 1", out, pipe.Seq(), err)
	}

	// The lone follower dies: quorum (2 of 3) is unreachable.
	c1.Close()
	<-d1
	ingested := pipe.Collector().Get(stats.CtrServeIngested)
	out, err = ingestBy(prim, pipe, w.Batches[1], time.Time{})
	if out != LoggedNotQuorum || pipe.Seq() != 2 {
		t.Fatalf("outcome %d at seq %d, want LoggedNotQuorum at seq 2 (err %v)", out, pipe.Seq(), err)
	}
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("want ErrQuorumLost in chain, got %v", err)
	}
	if errors.Is(err, serve.ErrFenced) {
		t.Fatal("quorum loss must not read as fencing")
	}
	if got := pipe.Collector().Get(stats.CtrServeIngested); got != ingested {
		t.Fatal("a batch without quorum was applied")
	}
	f1.Pipeline().Close()
	prim.Close()
}
