package replica

import (
	"errors"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/enginetest"
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

// sessionOpts are the options every session under test is built with:
// two workers keep the engine's counters reproducible; its states do
// not depend on the worker count.
var sessionOpts = tdgraph.SessionOptions{Cores: 2}

func bootstrapFrom(w *stream.Workload) func() (*tdgraph.Session, error) {
	return func() (*tdgraph.Session, error) {
		return tdgraph.NewSession(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices, sessionOpts)
	}
}

// nodeConfig builds a pipeline config rooted at dir, so a node can be
// "restarted" by building another config over the same directories.
func nodeConfig(w *stream.Workload, dir string) serve.PipelineConfig {
	return serve.PipelineConfig{
		Bootstrap:       bootstrapFrom(w),
		Algorithm:       tdgraph.NewSSSP(0),
		SessionOptions:  sessionOpts,
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

// referenceStates streams the whole workload, uninterrupted, through the
// functional topology-driven engine, which starts no worker pool — so
// every member compared with it is checked across engines as well as
// across crashes, elections and reseeds.
func referenceStates(w *stream.Workload) []float64 {
	ref := enginetest.NewRunner(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices, enginetest.TopologyDriven)
	for _, b := range w.Batches {
		ref.Apply(b)
	}
	return ref.S
}

// settledWorkers counts the native engine's pool goroutines once the
// count holds still: a closed pool's goroutines leave on their own
// schedule, within moments.
func settledWorkers() int {
	count := func() int {
		buf := make([]byte, 1<<16)
		for {
			if n := runtime.Stack(buf, true); n < len(buf) {
				return strings.Count(string(buf[:n]), "native.(*Session).workerLoop(")
			}
			buf = make([]byte, 2*len(buf))
		}
	}
	got := count()
	for prev := -1; got != prev; got = count() {
		prev = got
		time.Sleep(10 * time.Millisecond)
	}
	return got
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
	want := referenceStates(w)

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

// ackedClock is the real clock until the watched follower has sent n
// acks, then an hour ahead: far enough to expire any batch deadline,
// and still ahead of real time, so the I/O deadlines read from it stay
// in the future.
type ackedClock struct {
	serve.RealClock
	acks *atomic.Int64
	n    int64
}

func (c ackedClock) Now() time.Time {
	if c.acks.Load() >= c.n {
		return time.Now().Add(time.Hour)
	}
	return time.Now()
}

// TestFollowerSkippedAtDeadlineCaughtUpLive: a batch deadline that
// expires after the first follower's ack ends the round there, at
// quorum, and skips the second follower. The next live group catches
// the skipped follower up inside the round, from the WAL, before its
// own record: no drop, no reattach, both followers stay live.
func TestFollowerSkippedAtDeadlineCaughtUpLive(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(w)

	pdir := t.TempDir()
	pcfg := nodeConfig(w, pdir)
	col := stats.NewCollector()
	pcfg.Collector = col
	var acks atomic.Int64

	f1, c1, d1 := startFollower(t, w, t.TempDir())
	f2, c2, d2 := startFollower(t, w, t.TempDir())
	clk := ackedClock{acks: &acks, n: 2} // follower 1's ack of batch 2
	prim := NewPrimary(PrimaryConfig{Term: 1, ClusterSize: 3, WAL: pcfg.WAL, Collector: col, Clock: clk})
	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 1); err != nil {
		t.Fatal(err)
	}
	if err := prim.AddFollower(ackCountingConn{Conn: c1, acks: &acks}); err != nil {
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
	if err := ingest(prim, pipe, w.Batches[0]); err != nil {
		t.Fatal(err)
	}

	// Batch 2: follower 1's ack makes quorum, then the deadline expires.
	// Later batches carry no deadline, so the clock's jump touches only
	// their I/O deadlines, which it moves further out.
	if _, err := ingestBy(prim, pipe, w.Batches[1], time.Now().Add(time.Minute)); err != nil {
		t.Fatalf("batch 2 reached quorum before its deadline, yet: %v", err)
	}
	if f1.Seq() != 2 || f2.Seq() != 1 {
		t.Fatalf("followers at seq %d/%d after the expired round, want 2/1", f1.Seq(), f2.Seq())
	}

	// Batch 3: the live group catches follower 2 up to record 2 first.
	if err := ingest(prim, pipe, w.Batches[2]); err != nil {
		t.Fatal(err)
	}
	if got := col.Get(stats.CtrReplCatchupRecords); got != 1 {
		t.Fatalf("catch-up records = %d, want 1 (record 2, inside the round)", got)
	}
	for _, b := range w.Batches[3:] {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := col.Get(stats.CtrReplFollowerDrops); got != 0 {
		t.Fatalf("follower drops = %d, want 0", got)
	}
	if !prim.HasLive("follower-0") || !prim.HasLive("follower-1") {
		t.Fatal("a follower left the live set")
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
	if !statesEqual(f1.Pipeline().Session().States(), want) || !statesEqual(f2.Pipeline().Session().States(), want) {
		t.Fatal("follower states diverged from reference")
	}
	f1.Pipeline().Close()
	f2.Pipeline().Close()
}

// TestLateJoinerCatchesUpFromWAL: a follower attached mid-stream is
// fed the backlog from the primary's WAL segments before live records.
func TestLateJoinerCatchesUpFromWAL(t *testing.T) {
	w := testWorkload(t, 8)
	want := referenceStates(w)

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
	want := referenceStates(w)

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

	lossy := fault.NewConn(newAsyncConn(pside), 99)

	prim := NewPrimary(PrimaryConfig{Term: 1, ClusterSize: 2, WAL: pcfg.WAL, Collector: col})
	if err := prim.AddFollower(lossy); err != nil {
		t.Fatal(err)
	}
	// Arm after the handshake: from here every primary→follower frame
	// is sent twice.
	lossy.Dup(1)
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

// TestFollowerAckImpliesDurable owns fsync-before-ack on the follower: in
// a two-member cluster, which needs the follower's ack for every batch,
// the follower fails one fsync after it attached: its first (the ledger
// stamp of the first record), second or third (the first two WAL
// barriers). A batch whose barrier failed is never acknowledged (the
// primary gives up on the ack after AckTimeout), so every batch the
// primary counted quorum-durable is in the follower's log.
func TestFollowerAckImpliesDurable(t *testing.T) {
	w := testWorkload(t, 6)
	for nth := int32(1); nth <= 3; nth++ {
		pcfg, fcfg := nodeConfig(w, t.TempDir()), nodeConfig(w, t.TempDir())
		syncs := new(atomic.Int32)
		fcfg.WAL.FS = failSync(1<<20, syncs)
		fl, err := NewFollower(FollowerConfig{Pipeline: fcfg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ClaimTerm(wal.Options{Dir: pcfg.WAL.Dir}, 1); err != nil {
			t.Fatal(err)
		}
		prim := NewPrimary(PrimaryConfig{Term: 1, ClusterSize: 2, WAL: pcfg.WAL, AckTimeout: 200 * time.Millisecond})
		fn := attach(t, prim, fl, nil)
		pipe, err := serve.NewPipeline(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		syncs.Store(1<<20 - nth) // the nth fsync from here fails
		acked := 0
		for _, b := range w.Batches {
			if ingest(prim, pipe, b) != nil {
				break
			}
			acked++
		}
		prim.Close()
		<-fn.done
		if acked == len(w.Batches) || fl.Seq() < uint64(acked) {
			t.Errorf("fsync %d failing: %d batches acked, follower durable through seq %d", nth, acked, fl.Seq())
		}
		pipe.Close()
		fl.Close()
	}
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
