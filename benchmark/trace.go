package main

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tdgraph/tdgraph/internal/replica"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// Instrument A: seam spans. Nothing inside the program is touched; the
// two seams its configs already expose — wal.Options.FS and
// NodeConfig.Dial — are wrapped with timing shims, and the client
// driver times its own three steps. Spans stay in memory and are
// written as one JSON file when the run ends.

// Span names. The tree is ack → client.{encode,write,wait};
// client.wait → leader.{wal_write,fsync} and repl.rtt; repl.rtt →
// follower.{wal_write,fsync}. A span's self time is its duration minus
// what its children cover: client.wait's is the leader's own work
// (decode, primary lock, apply, checkpoint, ack write), repl.rtt's is
// the follower's decode + apply + checkpoint plus the wire.
const (
	spanAck           = "ack"
	spanClientEncode  = "client.encode"
	spanClientWrite   = "client.write"
	spanClientWait    = "client.wait"
	spanWALWrite      = "wal.write" // raw seam name, before the leader is known
	spanWALFsync      = "wal.fsync"
	spanLeaderWrite   = "leader.wal_write"
	spanLeaderFsync   = "leader.fsync"
	spanFollowerWrite = "follower.wal_write"
	spanFollowerFsync = "follower.fsync"
	spanReplRTT       = "repl.rtt"
)

// span is one timed interval. Trace is the batch sequence the span
// belongs to (0 = outside every traced batch: set-up, heartbeats);
// Parent names the enclosing span of the same trace.
type span struct {
	Name   string `json:"name"`
	Member string `json:"member,omitempty"`
	Trace  uint64 `json:"trace"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// frameCount is what the Dial seam saw of one frame type.
type frameCount struct {
	Frames uint64 `json:"frames"`
	Bytes  uint64 `json:"bytes"`
}

// tracer collects spans and frame counts while on. It is off during
// set-up, warm-up and the untraced blocks of a traced pass, when the
// shims only forward.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	frames map[byte]frameCount // by frame type, inter-member connections only
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), frames: map[byte]frameCount{}}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) countFrame(typ byte, bytes int) {
	t.mu.Lock()
	fc := t.frames[typ]
	fc.Frames++
	fc.Bytes += uint64(bytes)
	t.frames[typ] = fc
	t.mu.Unlock()
}

// frameTotals reports what the Dial seam counted: per frame type (keyed
// by the type's number, for the span file), and in total with the
// heartbeats set apart.
func (t *tracer) frameTotals() (byType map[string]frameCount, frames, bytes, heartbeats uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byType = map[string]frameCount{}
	for typ, fc := range t.frames {
		byType[strconv.Itoa(int(typ))] = fc
		if typ == replica.FrameHeartbeat {
			heartbeats += fc.Frames
			continue
		}
		frames += fc.Frames
		bytes += fc.Bytes
	}
	return byType, frames, bytes, heartbeats
}

// timingFS is the wal.FS shim: files it creates record one span per
// Write and per Sync, and pass data and errors through unchanged.
type timingFS struct {
	wal.FS
	member string
	tr     *tracer
}

func (fs *timingFS) Create(path string) (wal.File, error) {
	f, err := fs.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, member: fs.member, tr: fs.tr}, nil
}

type timingFile struct {
	wal.File
	member string
	tr     *tracer
}

func (f *timingFile) Write(p []byte) (int, error) {
	if !f.tr.on.Load() {
		return f.File.Write(p)
	}
	start := time.Now()
	n, err := f.File.Write(p)
	f.tr.add(span{Name: spanWALWrite, Member: f.member, Start: f.tr.since(start), End: f.tr.since(time.Now()), Bytes: n})
	return n, err
}

func (f *timingFile) Sync() error {
	if !f.tr.on.Load() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.tr.add(span{Name: spanWALFsync, Member: f.member, Start: f.tr.since(start), End: f.tr.since(time.Now())})
	return err
}

// frameParser follows a byte stream of replica frames from their
// headers alone, however the stream is cut into reads: it reports each
// frame's type, sequence and total size once its last byte has passed.
type frameParser struct {
	hdr  [frameHeaderBytes]byte
	have int // header bytes collected
	left int // payload bytes of the current frame still to pass
}

func (p *frameParser) feed(b []byte, emit func(typ byte, seq uint64, size int)) {
	for len(b) > 0 {
		if p.have < frameHeaderBytes {
			n := copy(p.hdr[p.have:], b)
			p.have += n
			b = b[n:]
			if p.have < frameHeaderBytes {
				return
			}
			p.left = int(binary.LittleEndian.Uint32(p.hdr[29:33]))
		}
		n := min(p.left, len(b))
		p.left -= n
		b = b[n:]
		if p.left == 0 {
			plen := int(binary.LittleEndian.Uint32(p.hdr[29:33]))
			emit(p.hdr[4], binary.LittleEndian.Uint64(p.hdr[13:21]), frameHeaderBytes+plen)
			p.have = 0
		}
	}
}

// timingConn is the NodeConfig.Dial shim on one member's outbound
// connection. It counts frames by type in both directions and records
// one repl.rtt span per shipped record: from the FrameRecord write to
// the read that completes the matching FrameAck. The owning Primary
// uses a connection from one goroutine at a time, so the parser state
// needs no lock of its own.
type timingConn struct {
	net.Conn
	tr       *tracer
	to       string // the peer this connection was dialed to
	out, in  frameParser
	recSeq   uint64    // the shipped record awaiting its ack (0 = none)
	recStart time.Time // when its write began
	recBytes int
}

func (t *tracer) wrapConn(conn net.Conn, to string) net.Conn {
	return &timingConn{Conn: conn, tr: t, to: to}
}

func (c *timingConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	on := c.tr.on.Load()
	c.out.feed(b[:n], func(typ byte, seq uint64, size int) {
		if on {
			c.tr.countFrame(typ, size)
		}
		if typ == replica.FrameRecord {
			c.recSeq, c.recStart, c.recBytes = seq, start, size
		}
	})
	return n, err
}

func (c *timingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	on := c.tr.on.Load()
	c.in.feed(b[:n], func(typ byte, seq uint64, size int) {
		if on {
			c.tr.countFrame(typ, size)
		}
		if typ == replica.FrameAck && c.recSeq != 0 && seq >= c.recSeq {
			// The tracer only toggles between batches, so a record
			// written while on is acked while on.
			if on {
				c.tr.add(span{
					Name: spanReplRTT, Member: c.to,
					Start: c.tr.since(c.recStart), End: c.tr.since(time.Now()), Bytes: c.recBytes,
				})
			}
			c.recSeq = 0
		}
	})
	return n, err
}

// recordAck adds the client driver's view of one batch: the root ack
// span and its three client children.
func (t *tracer) recordAck(a ack) {
	start, encoded, sent, end := t.since(a.Start), t.since(a.Start.Add(a.Encode)), t.since(a.Sent), t.since(a.End)
	t.add(span{Name: spanAck, Trace: a.Seq, Start: start, End: end})
	t.add(span{Name: spanClientEncode, Trace: a.Seq, Parent: spanAck, Start: start, End: encoded})
	t.add(span{Name: spanClientWrite, Trace: a.Seq, Parent: spanAck, Start: encoded, End: sent, Bytes: a.Bytes})
	t.add(span{Name: spanClientWait, Trace: a.Seq, Parent: spanAck, Start: sent, End: end})
}

// link turns raw seam spans into a tree, once the pass is over and the
// leader is known. At window 1 batches do not overlap, so a seam span
// belongs to the batch whose [submit, ack] interval contains its start;
// spans outside every traced batch keep trace 0. WAL spans are renamed
// leader.* or follower.* by member, and a follower's WAL spans hang
// under that follower's repl.rtt.
func (t *tracer) link(leader string) []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var acks []span
	for _, s := range spans {
		if s.Name == spanAck {
			acks = append(acks, s)
		}
	}
	owner := func(at int64) uint64 {
		i := sort.Search(len(acks), func(i int) bool { return acks[i].End >= at })
		if i < len(acks) && acks[i].Start <= at {
			return acks[i].Trace
		}
		return 0
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanReplRTT:
			s.Trace, s.Parent = owner(s.Start), spanClientWait
		case spanWALWrite, spanWALFsync:
			s.Trace = owner(s.Start)
			write := s.Name == spanWALWrite
			if s.Member == leader {
				s.Parent = spanClientWait
				s.Name = spanLeaderFsync
				if write {
					s.Name = spanLeaderWrite
				}
			} else {
				s.Parent = spanReplRTT
				s.Name = spanFollowerFsync
				if write {
					s.Name = spanFollowerWrite
				}
			}
		}
	}
	return spans
}

// spanFile is what a traced pass leaves on disk.
type spanFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Leader   string                `json:"leader"`
	Frames   map[string]frameCount `json:"frames_by_type"`
	Spans    []span                `json:"spans"`
}

func writeSpanFile(path string, f spanFile) error {
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
