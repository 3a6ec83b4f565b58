package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/replica"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// scriptFile is a wal.File that records what reaches it and fails on
// request.
type scriptFile struct {
	bytes.Buffer
	writeErr, syncErr error
	short             bool // accept only half of each write
	syncs             int
}

func (f *scriptFile) Write(p []byte) (int, error) {
	if f.short {
		p = p[:len(p)/2]
	}
	n, _ := f.Buffer.Write(p)
	return n, f.writeErr
}
func (f *scriptFile) Sync() error  { f.syncs++; return f.syncErr }
func (f *scriptFile) Close() error { return nil }

type scriptFS struct {
	wal.FS
	file      *scriptFile
	createErr error
}

func (fs scriptFS) Create(string) (wal.File, error) {
	if fs.createErr != nil {
		return nil, fs.createErr
	}
	return fs.file, nil
}

func TestTimingFSPassesDataAndErrorsThrough(t *testing.T) {
	boom := errors.New("boom")
	for _, on := range []bool{false, true} {
		tr := newTracer()
		tr.on.Store(on)
		inner := &scriptFile{}
		fs := &timingFS{FS: scriptFS{file: inner}, member: "m1", tr: tr}
		f, err := fs.Create("seg")
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.Write([]byte("hello")); n != 5 || err != nil {
			t.Fatalf("on=%v: Write = %d, %v", on, n, err)
		}
		inner.short, inner.writeErr = true, boom
		if n, err := f.Write([]byte("worlds")); n != 3 || err != boom {
			t.Fatalf("on=%v: short failing Write = %d, %v, want 3, boom", on, n, err)
		}
		if got := inner.String(); got != "hellowor" {
			t.Fatalf("on=%v: inner file holds %q", on, got)
		}
		if err := f.Sync(); err != nil || inner.syncs != 1 {
			t.Fatalf("on=%v: Sync = %v after %d inner syncs", on, err, inner.syncs)
		}
		inner.syncErr = boom
		if err := f.Sync(); err != boom {
			t.Fatalf("on=%v: failing Sync = %v, want boom", on, err)
		}
		wantSpans := 0
		if on {
			wantSpans = 4 // two writes, two syncs — failures are timed too
		}
		if len(tr.spans) != wantSpans {
			t.Fatalf("on=%v: %d spans, want %d", on, len(tr.spans), wantSpans)
		}
		if on && (tr.spans[0].Name != spanWALWrite || tr.spans[0].Bytes != 5 || tr.spans[1].Bytes != 3 ||
			tr.spans[2].Name != spanWALFsync || tr.spans[0].Member != "m1") {
			t.Fatalf("unexpected spans %+v", tr.spans)
		}
		if _, err := (&timingFS{FS: scriptFS{createErr: boom}, tr: tr}).Create("x"); err != boom {
			t.Fatalf("Create error = %v, want boom", err)
		}
	}
}

// frames encodes a stream of frames with the real codec.
func frames(t *testing.T, fs ...replica.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range fs {
		if err := replica.WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestFrameParserSurvivesAnySplit(t *testing.T) {
	stream := frames(t,
		replica.Frame{Type: replica.FrameRecord, Seq: 7, Payload: bytes.Repeat([]byte{0xAB}, 100)},
		replica.Frame{Type: replica.FrameAck, Seq: 7},
		replica.Frame{Type: replica.FrameHeartbeat, Seq: 9},
		replica.Frame{Type: replica.FrameRecord, Seq: 8, Payload: []byte{1}},
	)
	type seen struct {
		typ  byte
		seq  uint64
		size int
	}
	want := []seen{
		{replica.FrameRecord, 7, frameHeaderBytes + 100}, {replica.FrameAck, 7, frameHeaderBytes},
		{replica.FrameHeartbeat, 9, frameHeaderBytes}, {replica.FrameRecord, 8, frameHeaderBytes + 1},
	}
	// Every two-piece split — mid-header, mid-payload, on a boundary —
	// and then byte-at-a-time.
	cuts := [][]int{}
	for c := 0; c <= len(stream); c++ {
		cuts = append(cuts, []int{c})
	}
	var each []int
	for c := 1; c < len(stream); c++ {
		each = append(each, c)
	}
	cuts = append(cuts, each)
	for _, cut := range cuts {
		var p frameParser
		var got []seen
		emit := func(typ byte, seq uint64, size int) { got = append(got, seen{typ, seq, size}) }
		prev := 0
		for _, c := range append(cut, len(stream)) {
			p.feed(stream[prev:c], emit)
			prev = c
		}
		if len(got) != len(want) {
			t.Fatalf("cut %v: parsed %d frames, want %d", cut[:1], len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut %v: frame %d = %+v, want %+v", cut[:1], i, got[i], want[i])
			}
		}
	}
}

// dribble is a net.Conn whose reads return at most chunk bytes.
type dribble struct {
	net.Conn
	r     io.Reader
	chunk int
	wrote bytes.Buffer
}

func (d *dribble) Read(p []byte) (int, error) {
	if len(p) > d.chunk {
		p = p[:d.chunk]
	}
	return d.r.Read(p)
}
func (d *dribble) Write(p []byte) (int, error) { return d.wrote.Write(p) }

func TestTimingConnRecordsRoundTripsAndCounts(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	replies := frames(t, replica.Frame{Type: replica.FrameAck, Seq: 4}, replica.Frame{Type: replica.FrameAck, Seq: 5})
	inner := &dribble{r: bytes.NewReader(replies), chunk: 5}
	conn := tr.wrapConn(inner, "m2")

	record := replica.Frame{Type: replica.FrameRecord, Seq: 5, Payload: []byte("payload")}
	if err := replica.WriteFrame(conn, replica.Frame{Type: replica.FrameHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if err := replica.WriteFrame(conn, record); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inner.wrote.Bytes(), frames(t, replica.Frame{Type: replica.FrameHeartbeat}, record)) {
		t.Fatal("written bytes were altered on the way through")
	}
	time.Sleep(time.Millisecond)
	// A stale ack (seq 4) must not close the round trip; seq 5 does.
	for i := 0; i < 2; i++ {
		fr, err := replica.ReadFrame(conn)
		if err != nil || fr.Type != replica.FrameAck {
			t.Fatalf("read %d: %+v, %v", i, fr, err)
		}
	}
	if len(tr.spans) != 1 {
		t.Fatalf("%d spans, want one repl.rtt", len(tr.spans))
	}
	s := tr.spans[0]
	if s.Name != spanReplRTT || s.Member != "m2" || s.Bytes != frameHeaderBytes+7 || s.dur() < int64(time.Millisecond) {
		t.Fatalf("unexpected span %+v", s)
	}
	if got := tr.frames[replica.FrameAck]; got.Frames != 2 || got.Bytes != 2*frameHeaderBytes {
		t.Fatalf("ack count %+v", got)
	}
	if tr.frames[replica.FrameHeartbeat].Frames != 1 || tr.frames[replica.FrameRecord].Frames != 1 {
		t.Fatalf("frame counts %+v", tr.frames)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping count once", []span{{Start: 110, End: 150}, {Start: 130, End: 160}}, 50},
		{"clipped to the parent", []span{{Start: 50, End: 120}, {Start: 190, End: 300}}, 70},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"unsorted", []span{{Start: 150, End: 170}, {Start: 110, End: 120}}, 70},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// One hand-built batch: 1000 ns ack = 10 client + 40 leader write +
// 200 leader fsync + two round trips (300, 250) + 200 of the leader's
// own work; inside the first round trip the follower writes 20 and
// fsyncs 180.
func TestLinkAndAnalyzeOneBatch(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	tr.recordAck(ack{Seq: 3, Start: at(1000), Encode: 4, Sent: at(1010), End: at(2000), Bytes: 93})
	tr.add(span{Name: spanWALWrite, Member: "m0", Start: 1100, End: 1140, Bytes: 72})
	tr.add(span{Name: spanWALFsync, Member: "m0", Start: 1140, End: 1340})
	tr.add(span{Name: spanReplRTT, Member: "m1", Start: 1350, End: 1650})
	tr.add(span{Name: spanWALWrite, Member: "m1", Start: 1400, End: 1420, Bytes: 72})
	tr.add(span{Name: spanWALFsync, Member: "m1", Start: 1420, End: 1600})
	tr.add(span{Name: spanReplRTT, Member: "m2", Start: 1650, End: 1900})
	tr.add(span{Name: spanWALFsync, Member: "m2", Start: 5000, End: 5100}) // after the batch: set-up noise

	spans := tr.link("m0")
	for _, s := range spans {
		if s.Start == 5000 && s.Trace != 0 {
			t.Fatalf("a span outside every batch was given trace %d", s.Trace)
		}
		if s.Start < 2000 && s.Trace != 3 {
			t.Fatalf("span %+v was not attributed to batch 3", s)
		}
	}
	bd := analyze(spans)
	if len(bd.Batches) != 1 {
		t.Fatalf("%d batches, want 1", len(bd.Batches))
	}
	got := bd.Batches[0]
	want := batchTimes{
		Ack: 1000, Client: 10, LeaderWrite: 40, LeaderFsync: 200, ReplSum: 550, ReplMax: 300, LeaderOther: 200,
		FollowerWrite: 20, FollowerFsync: 180, FollowerOther: 100 + 250,
		LeaderFsyncs: 1, LeaderWALBytes: 72, FollowerFsyncs: 1, FollowerRecords: 2,
	}
	if got != want {
		t.Fatalf("breakdown\n got %+v\nwant %+v", got, want)
	}
	m := map[string]float64{}
	bd.layerMetrics(m)
	sum := m["share.client_pct"] + m["share.leader_wal_write_pct"] + m["share.leader_fsync_pct"] + m["share.repl_pct"] + m["share.leader_other_pct"]
	if !near(sum, 100) {
		t.Fatalf("top-level shares sum to %v, want 100", sum)
	}
	if !near(m["repl.rtt_sum_us_p50"], 0.55) || !near(m["follower.fsyncs_per_batch"], 0.5) || !near(m["wire.submit_bytes_per_batch"], 93) {
		t.Fatalf("unexpected metrics %v", m)
	}
}
