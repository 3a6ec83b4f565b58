package replica

import (
	"bufio"
	"errors"
	"net"
	"syscall"
	"time"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// groupReadAhead sizes a client session's read buffer and with it the
// commit group: whatever submits are already complete in it behind the
// one being served ride along in that one's WAL barrier and quorum round.
// It is a cap, not a tuning knob: the one wait for a group to fill is
// groupLinger's, for submits the client already owes.
const groupReadAhead = 64 << 10

// groupLinger bounds the wait for the submits a pipelining client owes.
// Such a client keeps a window of submits in flight and sends a new one
// for each ack it reads. If a round took only what was already buffered,
// the round after one of k submits would hold the submits that queued
// during it but none of the k sent for its acks, which land microseconds
// later: the window would split into groups that take turns, each paying
// its own WAL barrier and follower round trip, and whether and where it
// splits would be decided by scheduling, run by run. So a round of k > 1
// counts the whole frames already waiting before it acks (framesWaiting),
// and the next round reads on until that many plus k are in hand
// (awaitFrames). The bound is reached only when the client sends fewer,
// at the end of its stream; the k replacements take a few microseconds
// each.
const groupLinger = time.Millisecond

// commitGroup is the memory one session gathers commit groups in, reused
// round after round: the records' payloads and the batches decoded from
// them, in sequence order. Nothing downstream may keep a reference into
// it past the round.
type commitGroup struct {
	payloads [][]byte
	batches  [][]graph.Update
	updates  []graph.Update // arena: the decoded batches, back to back
	bytes    []byte         // arena: payloads copied out of a frame buffer about to be reused
}

// reset empties the group, letting go of a byte arena a huge record grew
// (wal.AppendBatch does the same for the update arena).
func (g *commitGroup) reset() {
	if cap(g.bytes) > wal.MaxRetainedBuffer {
		g.bytes = nil
	}
	g.payloads, g.batches, g.updates, g.bytes = g.payloads[:0], g.batches[:0], g.updates[:0], g.bytes[:0]
}

// add decodes payload behind the batches already gathered and takes both
// into the group; keep first copies the payload into the group's own
// arena, for a caller whose frame buffer the next read overwrites. A
// payload that does not decode leaves the group as it was. Warm, it
// allocates nothing (TestIngestAllocBudget).
func (g *commitGroup) add(payload []byte, keep bool) error {
	at := len(g.updates)
	updates, err := wal.AppendBatch(g.updates, payload)
	if err != nil {
		return err
	}
	if keep {
		from := len(g.bytes)
		g.bytes = append(g.bytes, payload...)
		payload = g.bytes[from:len(g.bytes):len(g.bytes)]
	}
	g.updates = updates
	g.payloads = append(g.payloads, payload)
	g.batches = append(g.batches, updates[at:len(updates):len(updates)])
	return nil
}

// gatherSubmits takes into g every further Submit that is already
// complete in br's buffer and continues head — the next sequence, and the
// head's deadline budget, so the group has one deadline — and returns how
// many buffered bytes they span. Nothing is consumed and nothing is
// waited for: the first frame that is anything else (or not all there
// yet, or damaged) stays unread with everything behind it, to be met by
// the blocking read after the commit, and the caller discards the span
// only once the group has been answered. It allocates nothing
// (TestIngestAllocBudget).
func gatherSubmits(g *commitGroup, br *bufio.Reader, head Frame) (span int) {
	buffered, _ := br.Peek(br.Buffered())
	for next := head.Seq + 1; ; next++ {
		fr, n := parseFrame(buffered[span:])
		if n == 0 || fr.Type != FrameSubmit || fr.Seq != next || fr.Orig != head.Orig || g.add(fr.Payload, false) != nil {
			return span
		}
		span += n
	}
}

// errNothingWaiting ends a peek-mode read that found no bytes waiting.
var errNothingWaiting = errors.New("replica: nothing waiting on the connection")

// sessionConn is a client connection under its session's read-ahead
// buffer. Reads block as usual, except in peek mode: there a read takes
// only what has already arrived and, finding nothing, fails with
// errNothingWaiting instead of waiting. Peek mode needs the socket's
// descriptor and a read that never parks on it (waitingReader).
type sessionConn struct {
	net.Conn
	raw  syscall.RawConn // nil: the connection cannot be peeked
	peek bool
	// readWaiting's state, kept here so that a peek allocates nothing.
	readNow func(fd uintptr) bool
	buf     []byte
	n       int
}

// waitingReader is what a platform with a non-blocking socket read adds
// to sessionConn (peek_unix.go).
type waitingReader interface {
	readWaiting(p []byte) (int, error)
}

func newSessionConn(conn net.Conn) *sessionConn {
	c := &sessionConn{Conn: conn}
	sc, ok := conn.(syscall.Conn)
	if _, can := any(c).(waitingReader); !ok || !can {
		return c
	}
	if raw, err := sc.SyscallConn(); err == nil {
		c.raw = raw
	}
	return c
}

func (c *sessionConn) Read(p []byte) (int, error) {
	if c.peek {
		return any(c).(waitingReader).readWaiting(p)
	}
	return c.Conn.Read(p)
}

// framesWaiting takes into br, without waiting, whatever has already
// arrived on c and returns how many whole frames br holds past its first
// skip bytes.
func framesWaiting(c *sessionConn, br *bufio.Reader, skip int) int {
	c.peek = true
	br.Peek(br.Buffered() + 1) // one read; errNothingWaiting is an answer, not a failure
	c.peek = false
	n, _ := wholeFrames(br, skip)
	return n
}

// awaitFrames reads on into br until it holds want whole frames, its
// buffer is full, the connection fails, or the deadline passes. A frame
// of any kind counts: whatever it is, the round's gather stops there.
func awaitFrames(conn net.Conn, br *bufio.Reader, want int, deadline time.Time) {
	have, at := wholeFrames(br, 0)
	if have >= want {
		return
	}
	conn.SetReadDeadline(deadline)
	defer conn.SetReadDeadline(time.Time{})
	for have < want {
		if _, err := br.Peek(br.Buffered() + 1); err != nil {
			return
		}
		more, end := wholeFrames(br, at)
		have, at = have+more, end
	}
}

// wholeFrames counts the whole, sound frames buffered in br from byte at
// on, and returns where the run of them ends.
func wholeFrames(br *bufio.Reader, at int) (n, end int) {
	buffered, _ := br.Peek(br.Buffered())
	for {
		_, size := parseFrame(buffered[at:])
		if size == 0 {
			return n, at
		}
		n, at = n+1, at+size
	}
}
