// Package replica is the serve layer's replication transport: a
// primary ships the write-ahead log's records — sealed history and the
// live tail alike — to followers over any net.Conn, collects
// durability acknowledgements, and fences deposed primaries with a
// monotonic term number. The safety argument is the textbook one
// (quorum intersection): an acknowledged batch is fsynced on a
// majority, so the most-advanced survivor of any single-node loss
// holds every acknowledged batch, and promotion just replays its own
// log — the exact recovery path a solo pipeline already trusts.
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"

	"github.com/tdgraph/tdgraph/internal/wal"
)

// Frame types. The protocol is deliberately small: one handshake pair,
// one data frame (and its "more to come" form), one ack, one refusal, a
// probe pair, a three-frame snapshot transfer for reseeding, a liveness
// heartbeat, and a client-ingestion pair for leader-routed submission.
const (
	// FrameHello opens a session, primary → follower: Term is the
	// primary's claim of authority, Seq is unused.
	FrameHello = 1
	// FrameWelcome accepts a session, follower → primary: Term echoes
	// the accepted term, Seq is the follower's last durable sequence —
	// the primary catches it up from Seq+1.
	FrameWelcome = 2
	// FrameRecord carries one WAL record, primary → follower: Seq is
	// the record's sequence, the payload is its EncodeBatch bytes. It
	// closes a commit group: the follower logs it together with any
	// FrameRecordMore records before it and answers with one FrameAck.
	FrameRecord = 3
	// FrameAck confirms durability, follower → primary: Seq is the
	// follower's last durable-and-applied sequence.
	FrameAck = 4
	// FrameReject refuses a session or a record, follower → primary:
	// Term is the follower's (possibly newer) term, Seq its last
	// durable sequence. A reject with a newer term fences the primary.
	// Sent primary → follower it refuses the follower itself: its log
	// diverges from the primary's and it must be reseeded.
	FrameReject = 5
	// FrameProbe asks a follower for its durable term and log position
	// without claiming anything, primary → follower: a starting primary
	// probes every peer and claims max(term)+1, so no two primaries can
	// ever serve under the same term. Term and Seq are unused.
	FrameProbe = 6
	// FrameState answers a probe, follower → primary: Term is the
	// follower's durable term, Seq its last durable sequence, Orig the
	// origin term of its newest record. Nothing is adopted.
	FrameState = 7
	// FrameSnapOffer opens a snapshot transfer, primary → follower: Seq
	// is the WAL sequence the shipped checkpoint covers (the file says
	// so itself, and must agree), the payload describes the snapshot
	// (size, checksum, term ledger). The follower answers with a FrameAck whose Seq is the
	// byte offset it already holds — 0 for a fresh transfer, the resume
	// point after a dropped connection — or a FrameReject if it cannot
	// install snapshots.
	FrameSnapOffer = 8
	// FrameSnapChunk carries one run of checkpoint bytes, primary →
	// follower: Seq is the chunk's byte offset into the snapshot file.
	// The follower acks each chunk with the new cumulative offset, so
	// the primary always knows the exact resume point.
	FrameSnapChunk = 9
	// FrameSnapDone ends the transfer, primary → follower: Seq repeats
	// the snapshot's covered sequence. The follower verifies the whole
	// file against the offered checksum, installs it atomically, and
	// acks with the installed sequence — or rejects a corrupt file.
	FrameSnapDone = 10
	// FrameHeartbeat asserts liveness, primary → follower: Term is the
	// primary's authority claim, Seq its committed log end. It carries
	// no payload and is never acknowledged — its only job is to renew
	// the follower's lease so elections stay quiet while the primary
	// breathes. A follower holding a newer term answers Reject, which
	// fences the sender at its next read.
	FrameHeartbeat = 11
	// FrameClientHello opens an ingestion session, client → node. The
	// leader answers FrameWelcome with Seq = its durable sequence (the
	// client resumes submitting past it); a non-leader answers
	// FrameReject whose payload is the leader's advertised address —
	// the redirect hint client failover follows.
	FrameClientHello = 12
	// FrameSubmit carries one update batch, client → leader: Seq is the
	// client's 1-based batch index (the single writer's indices coincide
	// with WAL sequences), the payload its EncodeBatch bytes, and Orig —
	// unused by every other client frame — the batch deadline as
	// milliseconds of remaining budget (0 = no deadline). Remaining
	// time, not an absolute instant, so propagation never depends on
	// clock agreement between client and leader. The leader answers
	// FrameAck at its durable sequence once the batch is quorum-durable,
	// re-acks duplicates without re-applying, and answers FrameReject
	// when it cannot take the batch. Two reject shapes share the type,
	// discriminated by Orig: Orig 0 is a redirect (payload = the
	// leader's advertised address, the failover hint) and Orig > 0 is
	// backpressure — the node IS the leader but refuses this batch
	// (payload = "!deadline:<stage>", "!disk" or "!slo"), with Orig the
	// retry-after hint in milliseconds that the client's backoff must
	// honor. Backpressure rejects keep the session open; Seq still
	// carries the durable sequence so the client can advance its acked
	// prefix.
	FrameSubmit = 13
	// FrameRecordMore is FrameRecord for every record of a commit group
	// but the last: same fields, same checks, but the follower only
	// gathers it — in memory its session owns — and neither logs nor
	// answers until the closing FrameRecord arrives, when the whole group
	// costs it one write, one fsync and one FrameAck. That a follower
	// never writes while a group is open is also what lets the primary
	// send a group back to back over a synchronous transport (net.Pipe)
	// without deadlock. Only a group's first record may carry an origin
	// term the follower has not stamped yet (backlog records, which keep
	// theirs, go as groups of one), so a session that ends first leaves
	// nothing in the log and at most the one ledger entry the re-shipped
	// record will match. A group of one is a bare FrameRecord, the
	// pre-group wire exactly.
	FrameRecordMore = 14
)

const (
	frameMagic   = 0x54444750 // "TDGP"
	frameHdrSize = 37         // magic u32 | type u8 | term u64 | seq u64 | orig u64 | plen u32 | crc u32
	// maxFramePayload bounds a frame so a corrupted length field cannot
	// drive an allocation; matches the WAL's record bound.
	maxFramePayload = 1 << 30
)

// ErrBadFrame is the sentinel every malformed-frame failure wraps.
var ErrBadFrame = errors.New("replica: malformed frame")

// FrameError locates a wire-decoding failure. It always wraps
// ErrBadFrame (malformed bytes) or the underlying I/O error (transport
// death), never both ambiguously.
type FrameError struct {
	Reason string
	Err    error
}

func (e *FrameError) Error() string { return "replica: frame: " + e.Reason + ": " + e.Err.Error() }
func (e *FrameError) Unwrap() error { return e.Err }

// Frame is one protocol message. Term is always the sender's session
// (fencing) term; Orig is a second, per-record term: on FrameRecord it
// is the term under which the record was *created* (catch-up records
// keep their original term), on FrameWelcome and FrameState it is the
// origin term of the replica's newest record — the "tail stamp" the
// primary compares against its own term ledger to detect a divergent
// log at the handshake.
type Frame struct {
	Type    byte
	Term    uint64
	Seq     uint64
	Orig    uint64
	Payload []byte
}

// frameBufs recycles WriteFrame's buffers: only the Write one was built
// for reads it (io.Writer may not retain it; fault.Conn copies frames).
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteFrame sends one frame in a single Write call — the fault
// injector's conn wrapper acts per Write, so one frame is one unit of
// drop/duplication/reordering/truncation.
func WriteFrame(w io.Writer, f Frame) error { return writeFrameRun(w, f, 1) }

// writeFrameRun sends n frames that differ only in their sequence —
// f.Seq, f.Seq+1, … — in a single Write call: the in-order acks that
// answer a commit group's n submits, at the cost of one.
func writeFrameRun(w io.Writer, f Frame, n int) error {
	bp := frameBufs.Get().(*[]byte)
	*bp = (*bp)[:0]
	for ; n > 0; n-- {
		*bp = appendFrame(*bp, f)
		f.Seq++
	}
	_, err := w.Write(*bp)
	if cap(*bp) <= wal.MaxRetainedBuffer {
		frameBufs.Put(bp)
	}
	if err != nil {
		return &FrameError{Reason: "write", Err: err}
	}
	return nil
}

// appendFrame encodes f onto dst: the one frame-header encoder.
//
//tdgraph:hot
func appendFrame(dst []byte, f Frame) []byte {
	hdr := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = append(dst, f.Type)
	dst = binary.LittleEndian.AppendUint64(dst, f.Term)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, f.Orig)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	crc := crc32.Update(crc32.ChecksumIEEE(dst[hdr:]), crc32.IEEETable, f.Payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, f.Payload...)
}

// ReadFrame reads and validates one frame into fresh memory. Malformed
// bytes fail with a *FrameError wrapping ErrBadFrame; transport
// failures keep their underlying error (io.EOF passes through bare when
// the connection closes cleanly between frames).
func ReadFrame(r io.Reader) (Frame, error) {
	var buf []byte
	return readFrameInto(r, &buf)
}

// readFrameInto reads one frame — header, then payload: two reads, so
// seeded fault schedules meet the same frames — into *buf, grown to fit;
// the returned Payload aliases *buf. A long-lived session passes the same
// buffer every time, allocates nothing per frame, and is done with a
// payload before reading the next. A buffer a frame grew past
// wal.MaxRetainedBuffer is let go here.
//
//tdgraph:hot
func readFrameInto(r io.Reader, buf *[]byte) (Frame, error) {
	if cap(*buf) > wal.MaxRetainedBuffer {
		*buf = nil
	}
	b := slices.Grow((*buf)[:0], frameHdrSize)[:frameHdrSize]
	n, err := io.ReadFull(r, b)
	if err != nil {
		if err == io.EOF && n == 0 {
			return Frame{}, io.EOF
		}
		return Frame{}, &FrameError{Reason: "short header", Err: err}
	}
	f, plen, err := parseFrameHeader(b)
	if err != nil {
		return Frame{}, err
	}
	if plen > 0 {
		b = slices.Grow(b, plen)[:frameHdrSize+plen]
		f.Payload = b[frameHdrSize:]
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, &FrameError{Reason: "short payload", Err: err}
		}
	}
	*buf = b
	if !frameChecksumOK(b) {
		//tdgraph:allow hotalloc a malformed frame ends the session
		return Frame{}, &FrameError{Reason: "bad checksum", Err: fmt.Errorf("%w: frame checksum mismatch", ErrBadFrame)}
	}
	return f, nil
}

// parseFrame decodes the frame at the start of b without copying it, when
// all of it is there and sound: n is its length on the wire, and 0 means
// b holds no whole valid frame — the caller leaves the bytes where they
// are for readFrameInto, which waits for the rest or says what is wrong.
//
//tdgraph:hot
func parseFrame(b []byte) (f Frame, n int) {
	if len(b) < frameHdrSize {
		return Frame{}, 0
	}
	f, plen, err := parseFrameHeader(b[:frameHdrSize])
	if n = frameHdrSize + plen; err != nil || len(b) < n || !frameChecksumOK(b[:n]) {
		return Frame{}, 0
	}
	f.Payload = b[frameHdrSize:n]
	return f, n
}

// parseFrameHeader is the one frame-header parser: the fixed fields of
// the frame hdr opens and the length of the payload that follows it.
func parseFrameHeader(hdr []byte) (f Frame, plen int, err error) {
	if magic := binary.LittleEndian.Uint32(hdr[0:4]); magic != frameMagic {
		//tdgraph:allow hotalloc a malformed frame ends the session
		return Frame{}, 0, &FrameError{Reason: "bad magic", Err: fmt.Errorf("%w: magic %#x", ErrBadFrame, magic)}
	}
	f = Frame{
		Type: hdr[4],
		Term: binary.LittleEndian.Uint64(hdr[5:13]),
		Seq:  binary.LittleEndian.Uint64(hdr[13:21]),
		Orig: binary.LittleEndian.Uint64(hdr[21:29]),
	}
	n := binary.LittleEndian.Uint32(hdr[29:33])
	if f.Type < FrameHello || f.Type > FrameRecordMore {
		//tdgraph:allow hotalloc a malformed frame ends the session
		return Frame{}, 0, &FrameError{Reason: "bad type", Err: fmt.Errorf("%w: type %d", ErrBadFrame, f.Type)}
	}
	if n > maxFramePayload {
		//tdgraph:allow hotalloc a malformed frame ends the session
		return Frame{}, 0, &FrameError{Reason: "bad length", Err: fmt.Errorf("%w: implausible payload length %d", ErrBadFrame, n)}
	}
	return f, int(n), nil
}

// frameChecksumOK checks a whole frame — header and payload — against
// the CRC its header carries.
func frameChecksumOK(b []byte) bool {
	crc := crc32.Update(crc32.ChecksumIEEE(b[0:33]), crc32.IEEETable, b[frameHdrSize:])
	return crc == binary.LittleEndian.Uint32(b[33:37])
}
