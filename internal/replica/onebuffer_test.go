package replica

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// The tests in this file pin the "one buffer per batch" batch path: the
// payload a session receives is the buffer that is logged, shipped and
// logged again on every follower, and sessions reuse the memory they
// receive into.

// oneBufferCluster is a hand-wired leader (Pipeline + Primary) with
// followers over net.Pipe, driven the way Node.serveClient drives it:
// each batch arrives as a Submit frame read into session-owned buffers.
type oneBufferCluster struct {
	t    *testing.T
	cfg  func(dir string) serve.PipelineConfig
	pipe *serve.Pipeline
	prim *Primary
	// The leader's client-session buffers.
	sessFrame []byte
	sessBatch []graph.Update
	fols      []*Follower
	done      []chan error
	dirs      []string // WAL dirs: leader first, then followers in attach order
}

func newOneBufferCluster(t *testing.T, size int, cfg func(dir string) serve.PipelineConfig) *oneBufferCluster {
	t.Helper()
	c := &oneBufferCluster{t: t, cfg: cfg}
	pdir := t.TempDir()
	pcfg := cfg(pdir)
	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 1); err != nil {
		t.Fatal(err)
	}
	c.prim = NewPrimary(PrimaryConfig{Term: 1, ClusterSize: size, WAL: pcfg.WAL, Collector: pcfg.Collector})
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	c.pipe = pipe
	c.dirs = []string{pdir}
	return c
}

// attach starts one more follower and attaches it (catching it up from
// the leader's WAL when the leader is already ahead).
func (c *oneBufferCluster) attach() *Follower {
	c.t.Helper()
	dir := c.t.TempDir()
	fl, err := NewFollower(FollowerConfig{Pipeline: c.cfg(dir)})
	if err != nil {
		c.t.Fatalf("NewFollower: %v", err)
	}
	pside, fside := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- fl.Serve(fside) }()
	if err := c.prim.AddFollower(pside); err != nil {
		c.t.Fatalf("AddFollower: %v", err)
	}
	c.fols, c.done, c.dirs = append(c.fols, fl), append(c.done, done), append(c.dirs, dir)
	return fl
}

// submit runs one batch down the leader's client-session path: Submit
// frame into the session buffer, decode into the session slice, ingest.
func (c *oneBufferCluster) submit(seq uint64, b []graph.Update) {
	c.t.Helper()
	var wire bytes.Buffer
	if err := WriteFrame(&wire, Frame{Type: FrameSubmit, Seq: seq, Payload: wal.EncodeBatch(b)}); err != nil {
		c.t.Fatal(err)
	}
	c.ingestWire(wire.Bytes())
}

// ingestWire is submit for an already encoded Submit frame.
func (c *oneBufferCluster) ingestWire(frame []byte) {
	c.t.Helper()
	fr, err := readFrameInto(bytes.NewReader(frame), &c.sessFrame)
	if err != nil {
		c.t.Fatal(err)
	}
	batch, err := wal.DecodeBatchInto(c.sessBatch, fr.Payload)
	if err != nil {
		c.t.Fatal(err)
	}
	c.sessBatch = batch
	if out, err := c.prim.Ingest(c.pipe, fr.Payload, batch, time.Time{}); err != nil || out != QuorumDurable {
		c.t.Fatalf("ingest seq %d: outcome %d, err %v", fr.Seq, out, err)
	}
}

// scribble overwrites every session-owned receive buffer — the leader's
// client session and each follower's replication session — to capacity.
// Every member is idle between batches (each follower's ack has been
// read, which orders its writes before these), so anything still
// pointing into the buffers is a retained reference.
func (c *oneBufferCluster) scribble() {
	frames, batches := [][]byte{c.sessFrame}, [][]graph.Update{c.sessBatch}
	for _, fl := range c.fols {
		frames, batches = append(frames, fl.recvFrame), append(batches, fl.recvBatch)
	}
	for _, frame := range frames {
		frame = frame[:cap(frame)]
		for i := range frame {
			frame[i] = 0xA5
		}
	}
	for _, batch := range batches {
		batch = batch[:cap(batch)]
		for i := range batch {
			batch[i] = graph.Update{Edge: graph.Edge{Src: 1 << 30, Dst: 1 << 30, Weight: -1}, Delete: i%2 == 0}
		}
	}
}

// close shuts the cluster down and returns every member's final states.
func (c *oneBufferCluster) close() [][]float64 {
	c.t.Helper()
	if err := c.pipe.Close(); err != nil {
		c.t.Fatal(err)
	}
	c.prim.Close()
	states := [][]float64{append([]float64(nil), c.pipe.Session().States()...)}
	for i, fl := range c.fols {
		if err := <-c.done[i]; err != nil && !errors.Is(err, net.ErrClosed) {
			c.t.Fatalf("follower %d session: %v", i, err)
		}
		if err := fl.Close(); err != nil {
			c.t.Fatal(err)
		}
		states = append(states, append([]float64(nil), fl.Pipeline().Session().States()...))
	}
	return states
}

// walPayloads tails one member's WAL from the first record.
func walPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	tl := wal.NewTailer(wal.Options{Dir: dir}, 1)
	defer tl.Close()
	var out [][]byte
	for {
		_, p, err := tl.Next()
		if errors.Is(err, wal.ErrCaughtUp) {
			return out
		}
		if err != nil {
			t.Fatalf("tailing %s: %v", dir, err)
		}
		out = append(out, p)
	}
}

// TestSessionBuffersAreNotRetained: Primary → two Followers over
// net.Pipe with every session-owned receive buffer overwritten with
// garbage after every batch. Nothing downstream — Store.Apply, the
// validator, the checkpointer (every 3 batches), catch-up from the WAL
// (the second follower attaches late) — may still be reading the reused
// memory: all three members must end Float64bits-identical to the
// reference session, and every member's WAL must hold, record for
// record, exactly the bytes the client encoded.
func TestSessionBuffersAreNotRetained(t *testing.T) {
	w := testWorkload(t, 10)
	want := referenceStates(t, w)
	cfg := func(dir string) serve.PipelineConfig {
		c := nodeConfig(w, dir)
		c.WAL.SegmentBytes = 1 << 20 // one segment: retention never drops a record the tailer compares
		c.SessionOptions = tdgraph.SessionOptions{Validation: tdgraph.ValidationClamp}
		c.Bootstrap = func() (*tdgraph.Session, error) {
			return tdgraph.NewSession(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices, c.SessionOptions)
		}
		return c
	}
	c := newOneBufferCluster(t, 3, cfg)
	c.attach()
	for i, b := range w.Batches {
		if i == 4 {
			c.attach() // four records behind: caught up from the leader's WAL
		}
		c.submit(uint64(i+1), b)
		c.scribble()
	}
	for m, got := range c.close() {
		if !statesEqual(got, want) {
			t.Errorf("member %d diverged from the reference session after its buffers were overwritten", m)
		}
	}
	for m, dir := range c.dirs {
		got := walPayloads(t, dir)
		if len(got) != len(w.Batches) {
			t.Fatalf("member %d WAL holds %d records, want %d", m, len(got), len(w.Batches))
		}
		for i, p := range got {
			if !bytes.Equal(p, wal.EncodeBatch(w.Batches[i])) {
				t.Errorf("member %d WAL record %d is not the payload the client encoded", m, i+1)
			}
		}
	}
}

// TestOversizedFrameBufferReleased: a record larger than
// wal.MaxRetainedBuffer is served like any other, and the session lets
// its grown buffers go instead of pinning them.
func TestOversizedFrameBufferReleased(t *testing.T) {
	w := testWorkload(t, 1)
	huge := make([]graph.Update, wal.MaxRetainedBuffer/13+1000)
	for i := range huge {
		huge[i] = graph.Update{Edge: graph.Edge{Src: uint32(i % 61), Dst: uint32(i%59 + 1), Weight: float32(1 + i%7)}}
	}
	ref, err := bootstrapFrom(w)()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]graph.Update{huge, w.Batches[0]} {
		if _, err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]float64(nil), ref.States()...)

	c := newOneBufferCluster(t, 2, func(dir string) serve.PipelineConfig { return nodeConfig(w, dir) })
	fl := c.attach()
	c.submit(1, huge)
	c.submit(2, w.Batches[0]) // the follower has started its next read: the cap was applied
	for who, held := range map[string][2]int{
		"leader session":   {cap(c.sessFrame), cap(c.sessBatch)},
		"follower session": {cap(fl.recvFrame), cap(fl.recvBatch)},
	} {
		if held[0] > wal.MaxRetainedBuffer || held[1] > len(w.Batches[0]) {
			t.Errorf("%s still holds a %d-byte frame buffer and a %d-update slice after an oversized batch", who, held[0], held[1])
		}
	}
	for m, got := range c.close() {
		if !statesEqual(got, want) {
			t.Errorf("member %d diverged after the oversized batch", m)
		}
	}
}

// TestIngestAllocBudget: in steady state the bytes a batch allocates on
// its way through the member path — the leader's session read, decode,
// WAL append and quorum round, and each follower's read, decode, WAL
// append and ack — do not grow with the payload. The batches are
// engine no-ops (deletions of edges the graph never had), so the apply
// they end in costs the same at every size and drops out of the
// difference. Before the one-buffer path a 2048-update batch cost about
// six payloads and a decode more than this on the leader, and three and
// a decode on each follower. The allowance is a quarter payload, plus one
// payload per follower written to: WriteFrame's buffer comes from a
// sync.Pool, which under -race sheds buffers by design.
func TestIngestAllocBudget(t *testing.T) {
	w := testWorkload(t, 1)
	cfg := func(dir string) serve.PipelineConfig {
		c := nodeConfig(w, dir)
		c.Bootstrap = func() (*tdgraph.Session, error) {
			return tdgraph.NewSession(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices,
				tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel})
		}
		c.WAL.SegmentBytes = 64 << 20 // no rotation inside the measured window
		c.CheckpointEvery = -1
		return c
	}
	const warm, timed = 8, 32
	for _, followers := range []int{0, 2} {
		c := newOneBufferCluster(t, followers+1, cfg)
		for i := 0; i < followers; i++ {
			c.attach()
		}
		perBatch := map[int]float64{}
		for _, n := range []int{64, 2048} {
			noop := make([]graph.Update, n)
			for i := range noop {
				noop[i] = graph.Update{Edge: graph.Edge{Src: uint32(w.NumVertices + 1), Dst: uint32(i % w.NumVertices)}, Delete: true}
			}
			var wire bytes.Buffer
			WriteFrame(&wire, Frame{Type: FrameSubmit, Payload: wal.EncodeBatch(noop)})
			var before, after runtime.MemStats
			for i := 0; i < warm+timed; i++ {
				if i == warm {
					runtime.ReadMemStats(&before)
				}
				c.ingestWire(wire.Bytes())
			}
			runtime.ReadMemStats(&after)
			perBatch[n] = float64(after.TotalAlloc-before.TotalAlloc) / timed
		}
		c.close()
		payload := float64(4 + 13*2048)
		t.Logf("%d followers: %.0f B/batch at 64 updates, %.0f B/batch at 2048 (payload %.0f B)",
			followers, perBatch[64], perBatch[2048], payload)
		if growth := perBatch[2048] - perBatch[64]; growth > payload/4+float64(followers)*payload {
			t.Errorf("%d followers: a 2048-update batch allocates %.0f B more than a 64-update one (payload %.0f B): something on the path still copies per batch",
				followers, growth, payload)
		}
	}
}
