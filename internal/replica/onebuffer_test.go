package replica

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// The tests in this file pin the "one buffer per batch" batch path: the
// payload a session receives is the buffer that is logged, shipped and
// logged again on every follower, and sessions reuse the memory they
// receive into.

// oneBufferCluster is a Node leading hand-wired followers over net.Pipe.
// Its client session is the real Node.serveSubmits, over a net.Pipe of
// its own — but serving from session memory the harness holds, so that
// the tests can overwrite it between rounds and measure it.
type oneBufferCluster struct {
	t    *testing.T
	cfg  func(dir string) serve.PipelineConfig
	node *Node
	sess clientSession // the leader's client-session memory
	// The client's end of the open session (nil: none is open), what the
	// session returned, and the client's own reused buffer and position.
	client net.Conn
	served chan error
	wire   []byte
	next   uint64
	fols   []*Follower
	done   []chan error
	dirs   []string // WAL dirs: leader first, then followers in attach order
}

// noDeadlines is a connection whose deadlines are never armed: net.Pipe
// allocates a timer for each one, which would bury the allocations of
// the code around them.
type noDeadlines struct{ net.Conn }

func (noDeadlines) SetReadDeadline(time.Time) error  { return nil }
func (noDeadlines) SetWriteDeadline(time.Time) error { return nil }

func newOneBufferCluster(t *testing.T, size int, cfg func(dir string) serve.PipelineConfig) *oneBufferCluster {
	t.Helper()
	c := &oneBufferCluster{t: t, cfg: cfg, dirs: []string{t.TempDir()}}
	c.sess.br = bufio.NewReaderSize(nil, groupReadAhead)
	n, err := NewNode(NodeConfig{
		Addr: "leader", Pipeline: cfg(c.dirs[0]), Peers: make([]string, size-1),
		Dial: func(string) (net.Conn, error) { return nil, errors.New("unreachable") },
	})
	if err != nil {
		t.Fatal(err)
	}
	term, err := n.fol.PromoteTo(1)
	if err != nil {
		t.Fatal(err)
	}
	n.becomeLeader(term)
	c.node = n
	return c
}

// attach starts one more follower and attaches it (catching it up from
// the leader's WAL when the leader is already ahead). A non-nil wrap
// wraps the leader's end of the connection.
func (c *oneBufferCluster) attach(wrap func(net.Conn) net.Conn) *Follower {
	c.t.Helper()
	dir := c.t.TempDir()
	fl, err := NewFollower(FollowerConfig{Pipeline: c.cfg(dir)})
	if err != nil {
		c.t.Fatalf("NewFollower: %v", err)
	}
	pside, fside := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- fl.Serve(fside) }()
	if wrap != nil {
		pside = wrap(pside)
	}
	c.node.pmu.Lock()
	err = c.node.primary.AddFollower(pside)
	c.node.pmu.Unlock()
	if err != nil {
		c.t.Fatalf("AddFollower: %v", err)
	}
	c.fols, c.done, c.dirs = append(c.fols, fl), append(c.done, done), append(c.dirs, dir)
	return fl
}

// submit sends payloads as the next Submit frames in ONE client Write, so
// that all of them are in the leader's read-ahead buffer when it looks —
// one commit group — and reads their acks. (Over net.Pipe the Write
// returns once the leader has read it all, so a run of several frames
// must fit the read-ahead buffer; one frame may be any size.)
func (c *oneBufferCluster) submit(payloads ...[]byte) {
	c.t.Helper()
	if c.client == nil {
		var server net.Conn
		c.client, server = net.Pipe()
		c.sess.br.Reset(server)
		c.served = make(chan error, 1)
		go func() { c.served <- c.node.serveSubmits(server, &c.sess) }()
	}
	rounds := c.node.col.Get(stats.CtrServeRounds)
	c.wire = c.wire[:0]
	for _, p := range payloads {
		c.next++
		c.wire = appendFrame(c.wire, Frame{Type: FrameSubmit, Seq: c.next, Payload: p})
	}
	if _, err := c.client.Write(c.wire); err != nil {
		c.t.Fatal(err)
	}
	for seq := c.next + 1 - uint64(len(payloads)); seq <= c.next; seq++ {
		if fr, err := ReadFrame(c.client); err != nil || fr.Type != FrameAck || fr.Seq != seq {
			c.t.Fatalf("submit %d answered %+v, %v, want its Ack", seq, fr, err)
		}
	}
	if got := c.node.col.Get(stats.CtrServeRounds) - rounds; got != 1 {
		c.t.Fatalf("%d submits ending at seq %d took %d commit rounds, want 1", len(payloads), c.next, got)
	}
}

// hangUp ends the open client session, if any: once it returns nothing
// but the harness is using the session's memory.
func (c *oneBufferCluster) hangUp() {
	c.t.Helper()
	if c.client == nil {
		return
	}
	c.client.Close()
	if err := <-c.served; err != nil {
		c.t.Fatalf("client session: %v", err)
	}
	c.client = nil
}

// scribble overwrites every session-owned receive buffer and arena — the
// leader's client session (its read-ahead buffer included), hung up
// first, and each follower's replication session — to capacity. Every
// member is idle between rounds (each follower's ack has been read, which
// orders its writes before these), so anything still pointing into them
// is a retained reference. The next submit opens a new client session on
// the same memory.
func (c *oneBufferCluster) scribble() {
	c.hangUp()
	c.sess.br.Reset(bytes.NewReader(bytes.Repeat([]byte{0xA5}, groupReadAhead)))
	c.sess.br.Peek(groupReadAhead)
	frames, arenas := [][]byte{c.sess.frame, c.sess.group.bytes}, [][]graph.Update{c.sess.group.updates}
	for _, fl := range c.fols {
		frames, arenas = append(frames, fl.recvFrame, fl.group.bytes), append(arenas, fl.group.updates)
	}
	for _, frame := range frames {
		frame = frame[:cap(frame)]
		for i := range frame {
			frame[i] = 0xA5
		}
	}
	for _, arena := range arenas {
		arena = arena[:cap(arena)]
		for i := range arena {
			arena[i] = graph.Update{Edge: graph.Edge{Src: 1 << 30, Dst: 1 << 30, Weight: -1}, Delete: i%2 == 0}
		}
	}
}

// close shuts the cluster down and returns every member's final states.
func (c *oneBufferCluster) close() [][]float64 {
	c.t.Helper()
	c.hangUp()
	if err := c.node.Close(); err != nil {
		c.t.Fatal(err)
	}
	states := [][]float64{append([]float64(nil), c.node.fol.Pipeline().Session().States()...)}
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

// TestSessionBuffersAreNotRetained: a leader and two followers over
// net.Pipe with every session-owned receive buffer and arena overwritten
// with garbage after every commit round — rounds of one submit, then
// again in rounds of three. Nothing downstream — Store.Apply, the
// validator, the checkpointer (every 3 batches), catch-up from the WAL
// (the second follower attaches late) — may still be reading the reused
// memory: all three members must end Float64bits-identical to the
// reference session, and every member's WAL must hold, record for
// record, exactly the bytes the client encoded.
func TestSessionBuffersAreNotRetained(t *testing.T) {
	w := testWorkload(t, 10)
	want := referenceStates(w)
	cfg := func(dir string) serve.PipelineConfig {
		c := nodeConfig(w, dir)
		c.WAL.SegmentBytes = 1 << 20 // one segment: retention never drops a record the tailer compares
		c.SessionOptions.Validation = tdgraph.ValidationClamp
		c.Bootstrap = func() (*tdgraph.Session, error) {
			return tdgraph.NewSession(tdgraph.NewSSSP(0), w.Warmup, w.NumVertices, c.SessionOptions)
		}
		return c
	}
	for _, k := range []int{1, 3} {
		c := newOneBufferCluster(t, 3, cfg)
		c.attach(nil)
		for i := 0; i < len(w.Batches); i += k {
			if i >= 4 && len(c.fols) == 1 {
				c.attach(nil) // at least four records behind: caught up from the leader's WAL
			}
			c.submit(encodeGroup(w.Batches[i:min(i+k, len(w.Batches))])...)
			c.scribble()
		}
		for m, got := range c.close() {
			if !statesEqual(got, want) {
				t.Errorf("rounds of %d: member %d diverged from the reference session after its buffers were overwritten", k, m)
			}
		}
		for m, dir := range c.dirs {
			got := walPayloads(t, dir)
			if len(got) != len(w.Batches) {
				t.Fatalf("rounds of %d: member %d WAL holds %d records, want %d", k, m, len(got), len(w.Batches))
			}
			for i, p := range got {
				if !bytes.Equal(p, wal.EncodeBatch(w.Batches[i])) {
					t.Errorf("rounds of %d: member %d WAL record %d is not the payload the client encoded", k, m, i+1)
				}
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
	defer ref.Close()
	for _, b := range [][]graph.Update{huge, w.Batches[0]} {
		if _, err := ref.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]float64(nil), ref.States()...)

	c := newOneBufferCluster(t, 2, func(dir string) serve.PipelineConfig { return nodeConfig(w, dir) })
	fl := c.attach(nil)
	c.submit(wal.EncodeBatch(huge))
	c.submit(wal.EncodeBatch(w.Batches[0])) // both sessions have started their next read: the cap was applied
	for who, held := range map[string][2]int{
		"leader session":   {cap(c.sess.frame), cap(c.sess.group.updates)},
		"follower session": {cap(fl.recvFrame), cap(fl.group.updates)},
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
// sync.Pool, which under -race sheds buffers by design. A row of 32 small
// batches in the read-ahead buffer at once, one commit group, must cost
// no more per batch than one at a time: the group's arenas and slices
// are session memory too.
//
// It also owns the path's object count, commit-group gathering
// included: no row, with or without followers, may allocate an object
// per batch (the client, which reads its acks with ReadFrame as real
// clients do, included). Objects, not bytes: an object per batch is a
// few bytes, inside any byte budget. The follower connections are a
// transport whose deadlines do not allocate (noDeadlines), not a
// baseline subtracted per deadline: net.Pipe arms a timer per deadline,
// about 8 objects a batch with two followers, none of them the path's.
func TestIngestAllocBudget(t *testing.T) {
	w := testWorkload(t, 1)
	cfg := func(dir string) serve.PipelineConfig {
		c := nodeConfig(w, dir)
		c.WAL.SegmentBytes = 64 << 20 // no rotation inside the measured window
		c.CheckpointEvery = -1
		return c
	}
	const warm, timed = 8, 256
	for _, followers := range []int{0, 2} {
		c := newOneBufferCluster(t, followers+1, cfg)
		for i := 0; i < followers; i++ {
			c.attach(func(conn net.Conn) net.Conn { return noDeadlines{conn} })
		}
		perBatch, objects := map[[2]int]float64{}, map[[2]int]float64{} // by {updates per batch, batches per group}
		for _, row := range [][2]int{{64, 1}, {2048, 1}, {64, 32}} {
			n, k := row[0], row[1]
			noop := make([]graph.Update, n)
			for i := range noop {
				noop[i] = graph.Update{Edge: graph.Edge{Src: uint32(w.NumVertices + 1), Dst: uint32(i % w.NumVertices)}, Delete: true}
			}
			group := make([][]byte, k)
			for j := range group {
				group[j] = wal.EncodeBatch(noop)
			}
			var before, after runtime.MemStats
			for i := 0; i < warm+timed; i++ {
				if i == warm {
					runtime.ReadMemStats(&before)
				}
				c.submit(group...)
			}
			runtime.ReadMemStats(&after)
			perBatch[row] = float64(after.TotalAlloc-before.TotalAlloc) / float64(timed*k)
			objects[row] = float64(after.Mallocs-before.Mallocs) / float64(timed*k)
		}
		c.close()
		payload := float64(4 + 13*2048)
		small, big, grouped := perBatch[[2]int{64, 1}], perBatch[[2]int{2048, 1}], perBatch[[2]int{64, 32}]
		t.Logf("%d followers: %.0f B and %.2f objects/batch at 64 updates, %.0f B and %.2f at 2048 (payload %.0f B), %.0f B and %.2f at 64 updates in groups of 32",
			followers, small, objects[[2]int{64, 1}], big, objects[[2]int{2048, 1}], payload, grouped, objects[[2]int{64, 32}])
		if growth := big - small; growth > payload/4+float64(followers)*payload {
			t.Errorf("%d followers: a 2048-update batch allocates %.0f B more than a 64-update one (payload %.0f B): something on the path still copies per batch",
				followers, growth, payload)
		}
		// TotalAlloc is process-wide and, under -race, the pool behind the
		// ack writes sheds at random: with no follower the path allocates
		// nothing itself, and such stray bytes are all a row reads. Bytes
		// catch a large object now and then; the object count below, a
		// small one every batch.
		const stray = 16 // B/batch
		if followers == 0 && !raceEnabled && small > stray {
			t.Errorf("no follower: a 64-update batch allocates %.0f B, more than the %d B stray allowance", small, stray)
		}
		if grouped > small+stray {
			t.Errorf("%d followers: a batch in a commit group of 32 allocates %.0f B, more than the %.0f B it costs alone", followers, grouped, small)
		}
		for row, objs := range objects {
			if !raceEnabled && objs > 0.5 {
				t.Errorf("%d followers, %d updates in groups of %d: %.2f objects per batch, want none", followers, row[0], row[1], objs)
			}
		}
	}
}

// TestSendRecordsAllocs owns the object count of Primary.sendRecords'
// catch-up branch: shipping a commit group from the WAL and waiting for
// its ack allocates nothing, against a follower that reads and acks into
// reused buffers. The live branch is TestIngestAllocBudget's follower
// rows.
func TestSendRecordsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool sheds buffers on purpose")
	}
	pside, fside := net.Pipe()
	defer pside.Close()
	go func() {
		var in, out []byte
		for {
			f, err := readFrameInto(fside, &in)
			if err != nil {
				return
			}
			if f.Type == FrameRecord {
				out = appendFrame(out[:0], Frame{Type: FrameAck, Seq: f.Seq})
				fside.Write(out)
			}
		}
	}()
	p, fc := NewPrimary(PrimaryConfig{Term: 1}), &followerConn{conn: noDeadlines{pside}}
	payloads, seq := [][]byte{make([]byte, 64), make([]byte, 64)}, uint64(1)
	runtime.GC() // WriteFrame's buffers come from a sync.Pool: no collection may empty it
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	send := func() {
		if err := p.sendRecords(fc, seq, payloads, true); err != nil {
			t.Fatal(err)
		}
		seq += uint64(len(payloads))
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("catch-up sendRecords allocates %.1f objects per group, want 0", allocs)
	}
}
