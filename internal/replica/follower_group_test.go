package replica

import (
	"errors"
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

// recordFrame is record seq of w as the primary ships it: with more of
// its commit group to come, or closing it.
func recordFrame(w *stream.Workload, more bool, term, seq, orig uint64) Frame {
	typ := byte(FrameRecord)
	if more {
		typ = FrameRecordMore
	}
	return Frame{Type: typ, Term: term, Seq: seq, Orig: orig, Payload: wal.EncodeBatch(w.Batches[seq-1])}
}

func send(t *testing.T, conn net.Conn, frames ...Frame) {
	t.Helper()
	for _, f := range frames {
		if err := WriteFrame(conn, f); err != nil {
			t.Fatalf("writing frame type %d seq %d: %v", f.Type, f.Seq, err)
		}
	}
}

// requireUntouched: nothing of an open group may have reached the
// follower's pipeline or its log.
func requireUntouched(t *testing.T, what string, fl *Follower, dir string, seq uint64) {
	t.Helper()
	if got := fl.Seq(); got != seq {
		t.Fatalf("%s: follower at seq %d, want it still at %d", what, got, seq)
	}
	if got := walPayloads(t, dir); uint64(len(got)) != seq {
		t.Fatalf("%s: follower WAL holds %d records, want %d", what, len(got), seq)
	}
}

// leaderWith builds a hand-wired leader (Pipeline + Primary, cluster of
// two) whose log already holds the first n batches of w, logged as
// commit groups of three.
func leaderWith(t *testing.T, w *stream.Workload, n int, cfg PrimaryConfig) (*Primary, *serve.Pipeline) {
	t.Helper()
	pdir := t.TempDir()
	pcfg := nodeConfig(w, pdir)
	pcfg.CheckpointEvery = -1
	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 1); err != nil {
		t.Fatal(err)
	}
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 3 {
		run := w.Batches[i:min(i+3, n)]
		if _, err := pipe.Append(encodeGroup(run), time.Time{}); err != nil {
			t.Fatal(err)
		}
		if err := pipe.Apply(run); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Term, cfg.ClusterSize, cfg.WAL = 1, 2, pcfg.WAL
	return NewPrimary(cfg), pipe
}

func encodeGroup(batches [][]graph.Update) [][]byte {
	var ps [][]byte
	for _, b := range batches {
		ps = append(ps, wal.EncodeBatch(b))
	}
	return ps
}

// TestFollowerGroupSessionDiesMidGroup: a session that ends with a
// commit group open leaves nothing of it behind — the follower neither
// logged nor acknowledged a record of it — and the next attach catches
// the follower up from the primary's WAL as if the group had never been
// sent.
func TestFollowerGroupSessionDiesMidGroup(t *testing.T) {
	w := testWorkload(t, 7)
	want := referenceStates(w)
	dir := t.TempDir()
	fl, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	conn, done := handshake(t, fl, 1)
	send(t, conn, recordFrame(w, true, 1, 1, 1), recordFrame(w, true, 1, 2, 1))
	conn.Close()
	<-done
	requireUntouched(t, "session died with records 1 and 2 held", fl, dir, 0)

	prim, pipe := leaderWith(t, w, 7, PrimaryConfig{})
	defer pipe.Close()
	pside, fside := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- fl.Serve(fside) }()
	if err := prim.AddFollower(pside); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	prim.Close()
	<-served
	if fl.Seq() != 7 || !statesEqual(fl.Pipeline().Session().States(), want) {
		t.Fatalf("re-attached follower at seq %d; states identical to the reference: %v", fl.Seq(),
			statesEqual(fl.Pipeline().Session().States(), want))
	}
}

// TestFollowerGroupDuplicatedFrames: on a wire that sends every frame
// twice, the copy of a record with more to come is dropped in silence
// (a follower never writes mid-group) and the copy of a closing record
// is re-acked; the primary skips the stale acks. Groups of three still
// converge, each logged once.
func TestFollowerGroupDuplicatedFrames(t *testing.T) {
	w := testWorkload(t, 6)
	want := referenceStates(w)
	dir := t.TempDir()
	fl, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, dir)})
	if err != nil {
		t.Fatal(err)
	}
	pside, fside := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- fl.Serve(fside) }()
	var acks atomic.Int64
	inj := fault.New(99)
	prim, pipe := leaderWith(t, w, 0, PrimaryConfig{})
	if err := prim.AddFollower(inj.Conn(newAsyncConn(ackCountingConn{Conn: pside, acks: &acks}))); err != nil {
		t.Fatal(err)
	}
	inj.Arm(fault.NetDup, 1) // after the handshake: every record frame now goes out twice
	for i := 0; i < 6; i += 3 {
		run := w.Batches[i : i+3]
		if out, err := prim.Ingest(pipe, encodeGroup(run), run, time.Time{}); err != nil || out != QuorumDurable {
			t.Fatalf("group at %d under a duplicating wire: outcome %d, err %v", i+1, out, err)
		}
	}
	pipe.Close()
	prim.Close()
	<-done
	if fl.Seq() != 6 || !statesEqual(fl.Pipeline().Session().States(), want) {
		t.Fatal("follower diverged under duplicated group frames")
	}
	col := fl.Pipeline().Collector()
	if dups := col.Get(stats.CtrReplDupFrames); dups != 6 {
		t.Fatalf("follower counted %d duplicate frames, want all 6 copies", dups)
	}
	// The second group's closing copy may still be in flight when the
	// primary hangs up: 2 acks and 1 re-ack are certain, the 4th is not.
	if got := acks.Load(); got < 3 || got > 4 {
		t.Fatalf("the primary read %d FrameAcks, want one per group plus a re-ack per duplicated closing record", got)
	}
	if got := len(walPayloads(t, dir)); got != 6 {
		t.Fatalf("follower WAL holds %d records, want each of the 6 once", got)
	}
	fl.Close()
}

// closingDropConn loses every closing record the primary writes.
type closingDropConn struct{ net.Conn }

func (c closingDropConn) Write(p []byte) (int, error) {
	if len(p) >= frameHdrSize && p[4] == FrameRecord {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestFollowerGroupClosingRecordDropped: the follower holds the group
// open and says nothing — so it is the primary's AckTimeout that ends
// the wait, drops the follower, and reports the group logged but not at
// quorum. The follower has logged none of it.
func TestFollowerGroupClosingRecordDropped(t *testing.T) {
	w := testWorkload(t, 3)
	dir := t.TempDir()
	fl, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	pside, fside := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- fl.Serve(fside) }()
	col := stats.NewCollector()
	prim, pipe := leaderWith(t, w, 0, PrimaryConfig{AckTimeout: 50 * time.Millisecond, Collector: col})
	defer pipe.Close()
	if err := prim.AddFollower(closingDropConn{pside}); err != nil {
		t.Fatal(err)
	}
	out, err := prim.Ingest(pipe, encodeGroup(w.Batches), w.Batches, time.Time{})
	if out != LoggedNotQuorum || !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("group whose closing record never arrived: outcome %d, err %v; want LoggedNotQuorum wrapping ErrQuorumLost", out, err)
	}
	if got := col.Get(stats.CtrReplFollowerDrops); got != 1 {
		t.Fatalf("follower drops = %d, want the silent follower dropped once", got)
	}
	<-done // dropping the follower closed its connection
	requireUntouched(t, "closing record dropped", fl, dir, 0)
}

// TestFollowerGroupForeignFrameMidGroup: only the group's own records
// may arrive while it is open. A heartbeat or a snapshot offer there is
// a protocol violation answered with a typed *FrameError, and so is a
// record that would open a second ledger range; a record from a deposed
// term is fenced as ever. A refused record gets its Reject when it closes
// its group and silence when more of the group is still to come, because
// the primary is then writing and not reading. Each ends the session with
// the open group discarded, and the next session starts clean.
func TestFollowerGroupForeignFrameMidGroup(t *testing.T) {
	w := testWorkload(t, 3)
	dir := t.TempDir()
	fl, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	for _, c := range []struct {
		name    string
		intrude Frame
		fenced  bool // ends in ErrStaleTerm, not a *FrameError
		reject  bool // a Reject says so on the wire
	}{
		{"heartbeat", Frame{Type: FrameHeartbeat, Term: 2, Seq: 1}, false, false},
		{"snapshot offer", Frame{Type: FrameSnapOffer, Term: 2, Seq: 9, Payload: []byte("offer")}, false, false},
		{"stale-term closing record", recordFrame(w, false, 1, 2, 1), true, true},
		{"stale-term record with more to come", recordFrame(w, true, 1, 2, 1), true, false},
		{"closing record opening a second origin term", recordFrame(w, false, 2, 2, 3), false, true},
		{"record opening a second origin term, more to come", recordFrame(w, true, 2, 2, 3), false, false},
	} {
		conn, done := handshake(t, fl, 2)
		send(t, conn, recordFrame(w, true, 2, 1, 2))
		go WriteFrame(conn, c.intrude) // a fenced session may answer before it stops reading
		if c.reject {
			if f, err := ReadFrame(conn); err != nil || f.Type != FrameReject || f.Term != 2 {
				t.Fatalf("%s mid-group: got %+v (err %v), want a Reject carrying term 2", c.name, f, err)
			}
		}
		var err error
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s mid-group: the session is still up — blocked answering a primary that is not reading", c.name)
		}
		conn.Close()
		var fe *FrameError
		if c.fenced && !errors.Is(err, ErrStaleTerm) || !c.fenced && !(errors.As(err, &fe) && errors.Is(err, ErrBadFrame)) {
			t.Fatalf("%s mid-group ended the session with %v", c.name, err)
		}
		requireUntouched(t, c.name+" mid-group", fl, dir, 0)
	}
	// Nothing of the six discarded groups lingers: a whole group now
	// lands as one round from sequence 1.
	conn, done := handshake(t, fl, 2)
	send(t, conn, recordFrame(w, true, 2, 1, 2), recordFrame(w, true, 2, 2, 2), recordFrame(w, false, 2, 3, 2))
	mustAck(t, conn, 3, "the group after six discarded ones")
	conn.Close()
	<-done
	requireUntouched(t, "clean group", fl, dir, 3)
}

// TestFollowerGroupSpanningOriginTerms: only a group's first record may
// open a ledger range, so at most one ledger entry is ever ahead of the
// log. That entry is durable while the group is still open and the WAL
// still empty; a held record that would open a second is refused with a
// typed *FrameError and stamps nothing. The follower such a session
// leaves behind — one stamp, no records — then attaches to a primary
// whose log really does cross from term 1 to term 2 and converges, every
// record attributed to the term that created it.
func TestFollowerGroupSpanningOriginTerms(t *testing.T) {
	w := testWorkload(t, 3)
	want := referenceStates(w)
	dir := t.TempDir()
	fl, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	conn, done := handshake(t, fl, 2)
	send(t, conn, recordFrame(w, true, 2, 1, 1), recordFrame(w, true, 2, 2, 2))
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		conn.Close() // or the deferred Close waits on the session
		t.Fatal("the session is still up, holding a group that spans two origin terms")
	}
	conn.Close()
	var fe *FrameError
	if !errors.As(err, &fe) || !errors.Is(err, ErrBadFrame) {
		t.Fatalf("a second origin term inside an open group ended the session with %v, want a *FrameError", err)
	}
	st, err := LoadTermState(wal.OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Ledger) != 1 || st.Ledger[0] != (TermBase{Term: 1, Base: 1}) {
		t.Fatalf("durable ledger with the group cut is %+v, want only the first record's stamp {1 1}", st.Ledger)
	}
	requireUntouched(t, "group spanning origin terms, cut", fl, dir, 0)

	// Record 1 was created under term 1; records 2 and 3 under term 2, as
	// one commit group.
	old, pipe := leaderWith(t, w, 1, PrimaryConfig{})
	defer pipe.Close()
	if _, err := ClaimTerm(old.cfg.WAL, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Append(encodeGroup(w.Batches[1:]), time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Apply(w.Batches[1:]); err != nil {
		t.Fatal(err)
	}
	prim := NewPrimary(PrimaryConfig{Term: 2, ClusterSize: 2, WAL: old.cfg.WAL})
	pside, fside := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- fl.Serve(fside) }()
	if err := prim.AddFollower(pside); err != nil {
		t.Fatalf("re-attach after the cut group: %v", err)
	}
	prim.Close()
	<-served
	if fl.Seq() != 3 || !statesEqual(fl.Pipeline().Session().States(), want) {
		t.Fatalf("re-attached follower at seq %d; states identical to the reference: %v", fl.Seq(),
			statesEqual(fl.Pipeline().Session().States(), want))
	}
	if st, err = LoadTermState(wal.OSFS{}, dir); err != nil {
		t.Fatal(err)
	}
	if st.At(1) != 1 || st.At(2) != 2 || st.At(3) != 2 {
		t.Fatalf("durable ledger attributes records 1,2,3 to terms %d,%d,%d; want 1,2,2", st.At(1), st.At(2), st.At(3))
	}
	requireUntouched(t, "caught up across origin terms 1 and 2", fl, dir, 3)
}
