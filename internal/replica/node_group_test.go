package replica

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// countingFS counts the Writes and Syncs that reach WAL segment files.
type countingFS struct {
	wal.FS
	writes, syncs atomic.Int64
}

func (c *countingFS) Create(path string) (wal.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) { f.fs.writes.Add(1); return f.File.Write(p) }
func (f countingFile) Sync() error                 { f.fs.syncs.Add(1); return f.File.Sync() }

// ackCountingConn counts the FrameAcks a leader reads from one follower.
// Everything a follower sends on a replication session is a bare header,
// and readFrameInto asks for exactly one header at a time, so one Read
// is one frame.
type ackCountingConn struct {
	net.Conn
	acks *atomic.Int64
}

func (c ackCountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n == frameHdrSize && binary.LittleEndian.Uint32(p) == frameMagic && p[4] == FrameAck {
		c.acks.Add(1)
	}
	return n, err
}

func submitFrame(w *stream.Workload, seq, orig uint64) []byte {
	return appendFrame(nil, Frame{Type: FrameSubmit, Seq: seq, Orig: orig, Payload: wal.EncodeBatch(w.Batches[seq-1])})
}

// clientHandshake opens an ingestion session on conn and returns the
// Welcome's sequence.
func clientHandshake(t *testing.T, conn net.Conn) uint64 {
	t.Helper()
	if err := WriteFrame(conn, Frame{Type: FrameClientHello}); err != nil {
		t.Fatal(err)
	}
	fr, err := ReadFrame(conn)
	if err != nil || fr.Type != FrameWelcome {
		t.Fatalf("client handshake: %+v, %v, want a Welcome", fr, err)
	}
	return fr.Seq
}

// TestNodeGroupCommitOneBarrierPerMember is group commit's count, made
// deterministic: a leader and two followers over net.Pipe, and 32
// submits that reach the leader in ONE Write, so all of them are in its
// read-ahead buffer when it looks. They must cost every member exactly
// one WAL write and one fsync, each follower exactly one FrameAck, and
// the client must still get 32 in-order acks; afterwards the three
// members are Float64bits-identical to the reference session and each
// WAL holds, record for record, the bytes the client encoded.
func TestNodeGroupCommitOneBarrierPerMember(t *testing.T) {
	const group = 32
	w := testWorkload(t, 1+group)
	want := referenceStates(w)
	clk := newManualClock()
	fabric := newChaosNet()
	addrs := []string{"a", "b", "c"}
	fss := map[string]*countingFS{}
	dirs := map[string]string{}
	nodes := map[string]*Node{}
	var followerAcks atomic.Int64
	for _, addr := range addrs {
		var peers []string
		for _, p := range addrs {
			if p != addr {
				peers = append(peers, p)
			}
		}
		fss[addr], dirs[addr] = &countingFS{FS: wal.OSFS{}}, t.TempDir()
		cfg := nodeConfig(w, dirs[addr])
		cfg.CheckpointEvery = -1
		cfg.WAL.SegmentBytes = 1 << 20 // one segment: the tailer below reads every record
		cfg.WAL.FS = fss[addr]
		dial := fabric.dialerFor(addr)
		n := newMember(t, fabric, clk, NodeConfig{
			Addr: addr, Peers: peers, Pipeline: cfg, Seed: 42,
			Dial: func(to string) (net.Conn, error) {
				conn, err := dial(to)
				if err != nil {
					return nil, err
				}
				return ackCountingConn{Conn: conn, acks: &followerAcks}, nil
			},
		})
		nodes[addr] = n
	}
	a := nodes["a"]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)
	driveUntil(t, clk, "leadership with both followers attached", func() bool {
		return a.Role() == RoleLeader && nodes["b"].Follower().Term() == 1 && nodes["c"].Follower().Term() == 1
	})
	clk.awaitPendingSleeper() // the role loop is parked: no heartbeat can land inside the round

	conn, err := fabric.dial("a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if seq := clientHandshake(t, conn); seq != 0 {
		t.Fatalf("Welcome at seq %d, want 0", seq)
	}
	// One submit on its own first: it opens every member's first segment
	// (a header write), which is not the group's cost.
	if _, err := conn.Write(submitFrame(w, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if fr, err := ReadFrame(conn); err != nil || fr.Type != FrameAck || fr.Seq != 1 {
		t.Fatalf("warm-up submit answered %+v, %v", fr, err)
	}
	type counts struct{ writes, syncs, ingested, rounds uint64 }
	read := func(addr string) counts {
		col := nodes[addr].Follower().Pipeline().Collector()
		return counts{uint64(fss[addr].writes.Load()), uint64(fss[addr].syncs.Load()),
			col.Get(stats.CtrServeIngested), col.Get(stats.CtrServeRounds)}
	}
	before := map[string]counts{}
	for _, addr := range addrs {
		before[addr] = read(addr)
	}
	acksBefore := followerAcks.Load()

	var wire []byte
	for seq := uint64(2); seq <= 1+group; seq++ {
		wire = append(wire, submitFrame(w, seq, 0)...)
	}
	wrote := make(chan error, 1)
	go func() { _, err := conn.Write(wire); wrote <- err }()
	for seq := uint64(2); seq <= 1+group; seq++ {
		fr, err := ReadFrame(conn)
		if err != nil || fr.Type != FrameAck || fr.Seq != seq || fr.Term != 1 {
			t.Fatalf("answer to submit %d: %+v, %v, want its Ack", seq, fr, err)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}

	for _, addr := range addrs {
		got, was := read(addr), before[addr]
		if got.writes-was.writes != 1 || got.syncs-was.syncs != 1 {
			t.Errorf("%s: %d submits cost %d WAL writes and %d fsyncs, want 1 and 1",
				addr, group, got.writes-was.writes, got.syncs-was.syncs)
		}
		if got.ingested-was.ingested != group || got.rounds-was.rounds != 1 {
			t.Errorf("%s: ingested %d batches in %d commit rounds, want %d in 1 (mean group size %d)",
				addr, got.ingested-was.ingested, got.rounds-was.rounds, group, group)
		}
	}
	if got := followerAcks.Load() - acksBefore; got != 2 {
		t.Errorf("the leader read %d FrameAcks from its followers for the group, want one each", got)
	}
	cancel()
	for _, addr := range addrs {
		n := nodes[addr]
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if n.Follower().Seq() != 1+group || !statesEqual(n.Follower().Pipeline().Session().States(), want) {
			t.Errorf("%s ended at seq %d; states identical to the reference: %v", addr, n.Follower().Seq(),
				statesEqual(n.Follower().Pipeline().Session().States(), want))
		}
		got := walPayloads(t, dirs[addr])
		if len(got) != 1+group {
			t.Fatalf("%s WAL holds %d records, want %d", addr, len(got), 1+group)
		}
		for i, p := range got {
			if !bytes.Equal(p, wal.EncodeBatch(w.Batches[i])) {
				t.Errorf("%s WAL record %d is not the payload the client encoded", addr, i+1)
			}
		}
	}
}

// TestNodePipelinedWindowCommitsWhole: a client on a real loopback socket
// that keeps a window of submits in flight and writes the next submit as
// each ack arrives — the closed loop of a pipelining client — gets about
// one commit round per window. Taking only what happened to be buffered,
// its first rounds split the window into groups that took turns, each
// paying its own barrier, for as long as scheduling let them: up to twice
// the rounds. The lone leader's states must still match the reference
// session.
func TestNodePipelinedWindowCommitsWhole(t *testing.T) {
	const window, total = 8, 240
	edges := make([]graph.Edge, 2000)
	for i := range edges {
		edges[i] = graph.Edge{Src: uint32(i*7) % 256, Dst: uint32(i*13+5) % 255, Weight: float32(1 + i%9)}
	}
	w := stream.Build(edges, 256, stream.Config{WarmupFraction: 0.5, BatchSize: 4, AddFraction: 0.75, NumBatches: total, Seed: 11})
	want := referenceStates(w)
	cfg := nodeConfig(w, t.TempDir())
	cfg.CheckpointEvery = -1
	n, err := NewNode(NodeConfig{
		Addr: "a", Pipeline: cfg, HeartbeatEvery: time.Second, Seed: 42,
		Dial: func(string) (net.Conn, error) { return nil, fmt.Errorf("unreachable") },
	})
	if err != nil {
		t.Fatal(err)
	}
	term, err := n.fol.PromoteTo(1)
	if err != nil {
		t.Fatal(err)
	}
	n.becomeLeader(term)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		served <- n.HandleConn(conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	clientHandshake(t, conn)
	sent := uint64(0)
	send := func() {
		sent++
		if _, err := conn.Write(submitFrame(w, sent, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for sent < window {
		send()
	}
	for seq := uint64(1); seq <= total; seq++ {
		if fr, err := ReadFrame(conn); err != nil || fr.Type != FrameAck || fr.Seq != seq {
			t.Fatalf("answer to submit %d: %+v, %v, want its Ack", seq, fr, err)
		}
		if sent < total {
			send()
		}
	}
	conn.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	rounds := n.Follower().Pipeline().Collector().Get(stats.CtrServeRounds)
	t.Logf("%d batches in a window of %d: %d commit rounds", total, window, rounds)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if !statesEqual(n.Follower().Pipeline().Session().States(), want) {
		t.Error("the leader's states differ from the reference session")
	}
	// One round per window, the first (the window still arriving) and a
	// few cut short by a stalled client (the next round takes their rest)
	// aside.
	if limit := uint64(total/window + total/window/3); rounds > limit {
		t.Errorf("%d batches in a window of %d took %d commit rounds, want at most %d (%d is one per window)",
			total, window, rounds, limit, total/window)
	}
}

// TestFramesWaitingNeverBlocks: framesWaiting takes in what has reached
// the socket and counts the whole frames past its skip — a partial frame
// not — and with nothing there it answers at once instead of waiting for
// the client.
func TestFramesWaitingNeverBlocks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := ln.Accept()
		accepted <- conn
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	defer server.Close()
	in := newSessionConn(server)
	if in.raw == nil {
		t.Skip("no non-blocking socket read on this platform")
	}
	br := bufio.NewReaderSize(in, groupReadAhead)
	counted := make(chan int, 1)
	go func() { counted <- framesWaiting(in, br, 0) }()
	select {
	case n := <-counted:
		if n != 0 {
			t.Fatalf("counted %d frames on a silent connection", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("framesWaiting waited for the client")
	}

	w := testWorkload(t, 3)
	first, second, third := submitFrame(w, 1, 0), submitFrame(w, 2, 0), submitFrame(w, 3, 0)
	sent := append(append(append([]byte(nil), first...), second...), third[:frameHdrSize+3]...)
	if _, err := client.Write(sent); err != nil {
		t.Fatal(err)
	}
	if _, err := br.Peek(len(sent)); err != nil { // a blocking read: all of it has arrived
		t.Fatal(err)
	}
	if n := framesWaiting(in, br, 0); n != 2 {
		t.Errorf("two whole frames and part of a third buffered: counted %d, want 2", n)
	}
	if n := framesWaiting(in, br, len(first)); n != 1 {
		t.Errorf("skipping the first frame: counted %d, want 1", n)
	}
	if _, err := client.Write(third[frameHdrSize+3:]); err != nil {
		t.Fatal(err)
	}
	// Real time: loopback TCP delivers on the kernel's schedule, which no
	// fake clock can model.
	for start := time.Now(); ; {
		if n := framesWaiting(in, br, 0); n == 3 {
			break
		} else if time.Since(start) > 10*time.Second {
			t.Fatalf("the rest of the third frame was sent; framesWaiting still counts %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// aheadClock reads a fixed span ahead of the clock it wraps.
type aheadClock struct {
	serve.Clock
	by time.Duration
}

func (c aheadClock) Now() time.Time { return c.Clock.Now().Add(c.by) }

// groupScript is one client-session frame script for the serial ≡
// grouped differential, with what it must end in so that neither side
// can pass by doing nothing.
type groupScript struct {
	name   string
	frames func(w *stream.Workload) [][]byte
	// Leader set-up: defaults are a lone member (quorum 1) that commits
	// whatever it is handed.
	peers     []string                                 // unreachable peers: quorum 2 with nobody attached
	pipeline  func(*serve.PipelineConfig, serve.Clock) // pipeline tweaks
	shed      bool                                     // force the SLO controller into its shed posture
	wantAcks  int                                      // FrameAcks in the answer stream
	wantLast  string                                   // the last answer: "ack", "reject" (gap or failure) or a busy marker
	wantBusy  string                                   // the busy marker some answer must carry ("" = none does)
	wantSeq   uint64                                   // the leader's final sequence
	wantGroup bool                                     // the one-Write run must take fewer commit rounds than batches
}

func damaged(frame []byte, at int) []byte {
	frame = append([]byte(nil), frame...)
	frame[at] ^= 0x40
	return frame
}

var groupScripts = []groupScript{
	{name: "plain run", wantAcks: 6, wantLast: "ack", wantSeq: 6, wantGroup: true,
		frames: func(w *stream.Workload) [][]byte {
			var fs [][]byte
			for seq := uint64(1); seq <= 6; seq++ {
				fs = append(fs, submitFrame(w, seq, 0))
			}
			return fs
		}},
	{name: "duplicate head", wantAcks: 5, wantLast: "ack", wantSeq: 4, wantGroup: true,
		frames: func(w *stream.Workload) [][]byte {
			return [][]byte{submitFrame(w, 1, 0), submitFrame(w, 2, 0), submitFrame(w, 2, 0), submitFrame(w, 3, 0), submitFrame(w, 4, 0)}
		}},
	{name: "gap inside the buffer", wantAcks: 2, wantLast: "reject", wantSeq: 2, wantGroup: true,
		frames: func(w *stream.Workload) [][]byte {
			return [][]byte{submitFrame(w, 1, 0), submitFrame(w, 2, 0), submitFrame(w, 4, 0), submitFrame(w, 5, 0)}
		}},
	{name: "non-Submit frame", wantAcks: 2, wantLast: "ack", wantSeq: 2, wantGroup: true,
		frames: func(w *stream.Workload) [][]byte {
			return [][]byte{submitFrame(w, 1, 0), submitFrame(w, 2, 0), appendFrame(nil, Frame{Type: FrameHeartbeat, Term: 1}), submitFrame(w, 3, 0)}
		}},
	{name: "trailing frame with a damaged CRC", wantAcks: 3, wantLast: "ack", wantSeq: 3, wantGroup: true,
		frames: func(w *stream.Workload) [][]byte {
			return [][]byte{submitFrame(w, 1, 0), submitFrame(w, 2, 0), submitFrame(w, 3, 0), damaged(submitFrame(w, 4, 0), frameHdrSize+9), submitFrame(w, 5, 0)}
		}},
	{name: "trailing frame with a damaged payload", wantAcks: 3, wantLast: "ack", wantSeq: 3, wantGroup: true,
		frames: func(w *stream.Workload) [][]byte {
			// A sound frame around a payload whose count contradicts its length.
			bad := appendFrame(nil, Frame{Type: FrameSubmit, Seq: 4, Payload: wal.EncodeBatch(w.Batches[3])[:30]})
			return [][]byte{submitFrame(w, 1, 0), submitFrame(w, 2, 0), submitFrame(w, 3, 0), bad, submitFrame(w, 5, 0)}
		}},
	{name: "a frame whose Orig differs", wantAcks: 5, wantLast: "ack", wantSeq: 5, wantGroup: true,
		frames: func(w *stream.Workload) [][]byte {
			return [][]byte{submitFrame(w, 1, 0), submitFrame(w, 2, 0), submitFrame(w, 3, 50), submitFrame(w, 4, 50), submitFrame(w, 5, 0)}
		}},
	{name: "shed posture", shed: true, wantAcks: 0, wantLast: "!slo", wantBusy: "!slo", wantSeq: 0,
		frames: func(w *stream.Workload) [][]byte {
			return [][]byte{submitFrame(w, 1, 0), submitFrame(w, 2, 0), submitFrame(w, 3, 0)}
		}},
	{name: "busy: deadline expired at admission", wantAcks: 1, wantLast: "reject", wantBusy: "!deadline:admit", wantSeq: 1,
		// The pipeline's clock runs an hour ahead of the node's, so any
		// budget the node rebases has run out by the time admission looks.
		pipeline: func(c *serve.PipelineConfig, clk serve.Clock) { c.Clock = aheadClock{Clock: clk, by: time.Hour} },
		frames: func(w *stream.Workload) [][]byte {
			return [][]byte{submitFrame(w, 1, 0), submitFrame(w, 2, 1), submitFrame(w, 3, 1)}
		}},
	{name: "busy: no quorum attached", peers: []string{"b", "c"}, wantAcks: 0, wantLast: "reject", wantBusy: "!quorum", wantSeq: 0,
		frames: func(w *stream.Workload) [][]byte {
			return [][]byte{submitFrame(w, 1, 0), submitFrame(w, 2, 0)}
		}},
	{name: "busy: disk pressure", wantAcks: 0, wantLast: "reject", wantBusy: "!disk", wantSeq: 0,
		pipeline: func(c *serve.PipelineConfig, _ serve.Clock) {
			inj := fault.New(1)
			inj.Arm(fault.LowSpace, 100) // the probe reads 100 bytes free, below the mark from the first admit on
			c.WAL.FS, c.DiskLowWater = inj.FS(wal.OSFS{}), 600
		},
		frames: func(w *stream.Workload) [][]byte {
			return [][]byte{submitFrame(w, 1, 0), submitFrame(w, 2, 0)}
		}},
}

type scriptResult struct {
	answers  []Frame
	seq      uint64
	states   []float64
	ingested uint64
	rounds   uint64
}

// runGroupScript feeds one script to a fresh leader — one Write per frame
// (over net.Pipe the next frame cannot arrive before the leader asks for
// it, so every commit group is of one by construction) or everything in
// ONE Write — and returns the answer stream and where the leader ended.
// A frame the session cannot survive ends every script, so the answer
// stream ends with the connection.
func runGroupScript(t *testing.T, sc groupScript, oneWrite bool) scriptResult {
	t.Helper()
	w := testWorkload(t, 6)
	clk := newManualClock()
	cfg := nodeConfig(w, t.TempDir())
	cfg.CheckpointEvery = -1
	if sc.pipeline != nil {
		sc.pipeline(&cfg, clk)
	}
	ncfg := NodeConfig{
		Addr: "a", Peers: sc.peers, Pipeline: cfg, HeartbeatEvery: time.Second, Seed: 42, Clock: clk,
		Dial: func(string) (net.Conn, error) { return nil, fmt.Errorf("unreachable") },
	}
	if sc.shed {
		ncfg.SLO = time.Millisecond
	}
	n, err := NewNode(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	term, err := n.fol.PromoteTo(1)
	if err != nil {
		t.Fatal(err)
	}
	n.becomeLeader(term)
	for i := 0; sc.shed && i < 8; i++ {
		n.slo.Observe(time.Second, 0, 1)
	}

	client, server := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- n.HandleConn(server) }()
	clientHandshake(t, client)
	answers := make(chan []Frame, 1)
	go func() {
		var got []Frame
		for {
			fr, err := ReadFrame(client)
			if err != nil {
				answers <- got
				return
			}
			got = append(got, fr)
		}
	}()
	frames := append(sc.frames(w), appendFrame(nil, Frame{Type: FrameProbe})) // ends any session still open
	if oneWrite {
		frames = [][]byte{bytes.Join(frames, nil)}
	}
	for _, f := range frames {
		if _, err := client.Write(f); err != nil {
			break // the session is over: what is left was never read
		}
	}
	res := scriptResult{answers: <-answers}
	client.Close()
	<-served
	col := n.Follower().Pipeline().Collector()
	res.ingested, res.rounds = col.Get(stats.CtrServeIngested), col.Get(stats.CtrServeRounds)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	res.seq = n.Follower().Seq()
	res.states = append([]float64(nil), n.Follower().Pipeline().Session().States()...)
	return res
}

func describeAnswers(frames []Frame) string {
	var b bytes.Buffer
	for _, f := range frames {
		fmt.Fprintf(&b, "{type %d term %d seq %d orig %d %q} ", f.Type, f.Term, f.Seq, f.Orig, f.Payload)
	}
	return b.String()
}

// TestNodeGroupSerialEquivalence is the serial ≡ grouped differential:
// whatever a client's frames are, sending them in one Write — so the
// leader forms the largest commit groups its rules allow — must produce
// the answer stream and the final state that sending them one at a time
// produces. Group commit changes how many barriers a run of submits
// costs, never what any submit is told.
func TestNodeGroupSerialEquivalence(t *testing.T) {
	for _, sc := range groupScripts {
		serial, grouped := runGroupScript(t, sc, false), runGroupScript(t, sc, true)
		if s, g := describeAnswers(serial.answers), describeAnswers(grouped.answers); s != g {
			t.Errorf("%s: answer streams differ\n serial:  %s\n grouped: %s", sc.name, s, g)
			continue
		}
		if serial.seq != grouped.seq || !statesEqual(serial.states, grouped.states) {
			t.Errorf("%s: serial ended at seq %d, grouped at %d; states identical: %v",
				sc.name, serial.seq, grouped.seq, statesEqual(serial.states, grouped.states))
		}
		acks, last, busy := 0, "nothing", ""
		for _, f := range serial.answers {
			switch {
			case f.Type == FrameAck:
				acks, last = acks+1, "ack"
			case f.Type == FrameReject && f.Orig > 0:
				last, busy = string(f.Payload), string(f.Payload)
			case f.Type == FrameReject:
				last = "reject"
			}
		}
		if acks != sc.wantAcks || last != sc.wantLast || busy != sc.wantBusy || serial.seq != sc.wantSeq {
			t.Errorf("%s: %d acks, last answer %q, busy marker %q, final seq %d; want %d, %q, %q, %d\n answers: %s",
				sc.name, acks, last, busy, serial.seq, sc.wantAcks, sc.wantLast, sc.wantBusy, sc.wantSeq, describeAnswers(serial.answers))
		}
		if serial.rounds != serial.ingested {
			t.Errorf("%s: one Write per frame took %d commit rounds for %d batches: a group formed that cannot have", sc.name, serial.rounds, serial.ingested)
		}
		if sc.wantGroup && grouped.rounds >= grouped.ingested {
			t.Errorf("%s: one Write for everything took %d commit rounds for %d batches: no group formed", sc.name, grouped.rounds, grouped.ingested)
		}
	}
}

// TestNodeSubmitDeadlineClamped: the budget a Submit carries is the
// client's to choose. One too large for time.Duration used to overflow
// the millisecond multiply — 1<<63 wraps to exactly 0 — and turn
// "effectively no deadline" into an immediate !deadline:admit refusal.
func TestNodeSubmitDeadlineClamped(t *testing.T) {
	now := time.Unix(1<<31, 0)
	for _, c := range []struct {
		budgetMs uint64
		want     func(time.Time) bool
		what     string
	}{
		{0, time.Time.IsZero, "no deadline"},
		{15, func(d time.Time) bool { return d.Equal(now.Add(15 * time.Millisecond)) }, "now + 15 ms"},
		{9_300_000_000_000, func(d time.Time) bool { return d.After(now.Add(200 * 365 * 24 * time.Hour)) }, "centuries away (the multiply overflows negative unclamped)"},
		{1 << 63, func(d time.Time) bool { return d.After(now.Add(200 * 365 * 24 * time.Hour)) }, "centuries away (the multiply wraps to 0 unclamped)"},
		{^uint64(0), func(d time.Time) bool { return d.After(now.Add(200 * 365 * 24 * time.Hour)) }, "centuries away"},
	} {
		if got := submitDeadline(now, c.budgetMs); !c.want(got) {
			t.Errorf("a budget of %d ms rebased onto %v gives %v, want %s", c.budgetMs, now, got, c.what)
		}
	}
}
