// Package wal is a segmented write-ahead log for streaming update
// batches — the durability rung of the ingestion path. Every admitted
// batch is appended as one CRC32-framed record before it touches the
// session; after a crash, recovery restores the newest valid checkpoint
// and replays the tail of the log, so nothing past the last fsync
// barrier is ever lost.
//
// The log is a directory of segment files named by the sequence number
// of their first record (`00000000000000000001.wal`). Each segment
// starts with a fixed header and carries consecutive records:
//
//	segment header: magic u32 | version u32 | baseSeq u64
//	record:         seq u64 | payloadLen u32 | crc u32 | payload
//
// The CRC (IEEE) covers the record's seq, length and payload, so a torn
// record, a short header and a bit flip are all detectable. Recovery
// truncates a torn tail in the final segment back to the last valid
// record (a crash mid-append is expected, not an error); corruption
// anywhere else — earlier segments, sequence gaps, valid-CRC records
// with impossible sequence numbers — is reported as *LogError wrapping
// ErrCorrupt, because no crash can produce it.
//
// Durability is configurable per log (SyncPolicy): fsync after every
// batch (the chaos suite's no-loss guarantee) or never (the OS
// decides). Rotation and Close always fsync so a sealed segment is
// durable regardless of policy.
package wal

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"syscall"

	"github.com/tdgraph/tdgraph/internal/graph"
)

const (
	segMagic   = 0x5444574C // "TDWL"
	segVersion = 1

	segHeaderSize = 16 // magic u32 | version u32 | baseSeq u64
	recHeaderSize = 16 // seq u64 | payloadLen u32 | crc u32

	// maxRecordPayload bounds a record so a corrupted length field can
	// never drive allocation.
	maxRecordPayload = 1 << 30
	// MaxRetainedBuffer caps the buffers the batch path reuses (the log's
	// record scratch, a session's frame and decode buffers): one that
	// grew past it is dropped after use, so a huge batch pins nothing.
	MaxRetainedBuffer = 1 << 20
)

// ErrTorn reports a record cut short by a crash mid-write. Open absorbs
// torn tails by truncation; the sentinel surfaces only through
// Recovery, never as an Open error.
var ErrTorn = errors.New("wal: torn record")

// ErrCorrupt reports log damage no crash can explain: a bad segment
// header, a sequence gap, or an invalid record with valid records after
// it.
var ErrCorrupt = errors.New("wal: log corrupt")

// ErrNoSpace marks a failure caused by the volume running out of room.
// It is retryable after space frees: the serving layer degrades to
// read-only instead of poisoning batches or crashing. Fault injectors
// wrap it; real ENOSPC from the OS is recognised by IsNoSpace.
var ErrNoSpace = errors.New("wal: no space left on device")

// IsNoSpace reports whether err is an out-of-space condition — either
// the package sentinel (injected faults) or the OS errno surfacing
// through an *os.PathError chain.
func IsNoSpace(err error) bool {
	return errors.Is(err, ErrNoSpace) || errors.Is(err, syscall.ENOSPC)
}

// NotDurableError wraps a failure on Append's post-write path: the
// record reached the segment file, but the fsync barrier or rotation
// that would guarantee (or seal) it did not complete. The batch must
// NOT be re-sent as a new sequence — its bytes are already in the log
// and may survive a crash, so a re-send would double-apply it on
// replay. Either retry the SAME sequence (Append re-drives the barrier
// without rewriting the record) or abandon the log and let recovery
// replay whatever survived. Pre-write failures are returned unwrapped:
// the record is nowhere and the batch is safe to re-send.
type NotDurableError struct{ Err error }

func (e *NotDurableError) Error() string { return "wal: appended but not durable: " + e.Err.Error() }

func (e *NotDurableError) Unwrap() error { return e.Err }

// LogError locates a WAL failure: the segment and byte offset where it
// was detected. errors.Is sees through it to ErrTorn / ErrCorrupt and
// to any underlying I/O error.
type LogError struct {
	Segment string // segment file name
	Offset  int64  // byte offset of the failed record or field
	Err     error
}

func (e *LogError) Error() string {
	return fmt.Sprintf("wal: segment %s @%d: %v", e.Segment, e.Offset, e.Err)
}

func (e *LogError) Unwrap() error { return e.Err }

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

const (
	// SyncEachBatch fsyncs after every append: nothing acknowledged is
	// ever lost. The default.
	SyncEachBatch SyncPolicy = iota
	// SyncNone never fsyncs on the append path; the OS page cache
	// decides. Fastest, weakest.
	SyncNone
)

// Options configures a log.
type Options struct {
	// Dir holds the segment files. It must exist.
	Dir string
	// SegmentBytes is the rotation threshold (default 4 MiB): a segment
	// whose size reaches it is sealed and the next append opens a new
	// one.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncEachBatch).
	Sync SyncPolicy
	// FS overrides the filesystem — the fault-injection seam. Nil means
	// the real filesystem.
	FS FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	o.FS = OrOS(o.FS)
	return o
}

// Stats counts what the log has done since Open.
type Stats struct {
	Appends   uint64 // records appended
	Fsyncs    uint64 // explicit fsync barriers issued
	Rotations uint64 // segments sealed
	Removed   uint64 // segments deleted by retention
}

// Log is an open write-ahead log. It is not safe for concurrent use;
// the serve pipeline owns it from a single goroutine.
type Log struct {
	opt Options
	fs  FS

	cur      File   // nil between rotation and the next append
	curName  string // base name of cur
	curSize  int64
	firstSeq uint64 // base seq of the oldest retained segment (0 = empty log)
	lastSeq  uint64 // highest appended/recovered seq (0 = empty log)
	durable  uint64 // highest seq guaranteed on stable storage
	settled  uint64 // highest seq whose AppendGroup returned nil; above it a retry may restart
	failed   error  // sticky: tear repair failed, extending the log would corrupt it
	rec      []byte // scratch the next record is framed in, reused across appends
	// segs indexes the segment files in Dir, oldest first. The log is
	// their only writer — Open scans them once, openSegment creates and
	// retention removes them — so the index stands in for a directory
	// listing on every later pass.
	segs []segInfo

	stats Stats
}

// FirstSeq returns the sequence the oldest retained segment starts at —
// the earliest record Replay can still produce (0 when the log has
// never held a record). Recovery uses it to detect a gap between the
// restored state and the retained log.
func (l *Log) FirstSeq() uint64 { return l.firstSeq }

// LastSeq returns the highest record sequence in the log (0 when empty).
func (l *Log) LastSeq() uint64 { return l.lastSeq }

// DurableSeq returns the highest sequence known to have reached stable
// storage — the no-loss boundary the chaos suite asserts against.
func (l *Log) DurableSeq() uint64 { return l.durable }

// Stats returns operation counts since Open.
func (l *Log) Stats() Stats { return l.stats }

// FreeSpace probes the log's filesystem for remaining capacity. ok is
// false when the FS has no free-space seam (FreeSpacer) or the probe
// itself failed — callers must treat that as "unknown", not "empty",
// and leave disk-pressure degradation disabled.
func (l *Log) FreeSpace() (free uint64, ok bool) {
	fsp, has := l.fs.(FreeSpacer)
	if !has {
		return 0, false
	}
	free, err := fsp.FreeSpace(l.opt.Dir)
	if err != nil {
		return 0, false
	}
	return free, true
}

func segName(baseSeq uint64) string { return fmt.Sprintf("%020d.wal", baseSeq) }

func parseSegName(name string) (uint64, bool) {
	if len(name) != 24 || name[20:] != ".wal" {
		return 0, false
	}
	var seq uint64
	for i := 0; i < 20; i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// Append is AppendGroup of the one batch's encoding.
func (l *Log) Append(seq uint64, batch []graph.Update) error {
	return l.AppendGroup(seq, [][]byte{EncodeBatch(batch)})
}

// AppendGroup writes EncodeBatch payloads as the records first,
// first+1, … — framed back to back in a scratch buffer the log owns,
// put in the file by ONE Write, and settled by one application of the
// fsync policy: the bytes are exactly what one call per payload would
// write, the barriers are one instead of k. The group is not atomic on
// disk — a crash mid-write leaves a clean prefix of it, like any torn
// tail — but nothing in it is reported durable before all of it is, and
// a failed write cuts the whole group off again. Sequences must be
// contiguous: first == LastSeq()+1, except on an empty log, whose first
// record may start anywhere (the checkpoint may already cover a prefix
// of the stream).
//
// The one sanctioned repeat: after a group failed with *NotDurableError
// its records are already in the segment, so a retry — which may
// restart anywhere from the first sequence that has not settled, in any
// grouping, but must carry the same payloads — skips what is there,
// appends the rest, and re-drives the fsync/rotation that failed
// instead of tripping the contiguity check.
func (l *Log) AppendGroup(first uint64, payloads [][]byte) error {
	if l.failed != nil {
		return l.failed
	}
	have := 0 // leading payloads a failed barrier already left in the file
	if l.lastSeq != 0 {
		if first <= l.settled || first > l.lastSeq+1 {
			return fmt.Errorf("wal: non-contiguous append: seq %d after %d", first, l.lastSeq)
		}
		have = min(int(l.lastSeq+1-first), len(payloads))
	}
	if rest := payloads[have:]; len(rest) > 0 {
		seq := first + uint64(have)
		if l.cur == nil {
			if err := l.openSegment(seq); err != nil {
				return err
			}
		}
		rec := l.rec[:0]
		for i, payload := range rest {
			rec = appendRecord(rec, seq+uint64(i), payload)
		}
		if cap(rec) <= MaxRetainedBuffer {
			l.rec = rec
		}
		if _, err := l.cur.Write(rec); err != nil {
			// The write may have landed partially. Cut the torn bytes off
			// right now: once a successor segment exists this one is sealed,
			// and recovery refuses (ErrCorrupt) to repair a sealed tail.
			l.repairTornWrite()
			return &LogError{Segment: l.curName, Offset: l.curSize, Err: err}
		}
		l.curSize += int64(len(rec))
		l.lastSeq = seq + uint64(len(rest)) - 1
		l.stats.Appends += uint64(len(rest))
	}
	if err := l.settle(have > 0); err != nil {
		return &NotDurableError{Err: err}
	}
	l.settled = first + uint64(len(payloads)) - 1
	return nil
}

// settle completes the post-write obligations of what AppendGroup just
// put (or, on a retry, found) in the file: the policy fsync — forced
// when the retry of a failed barrier is what brought us here — and,
// when the segment is over its threshold, rotation. A failure leaves
// the records in the file with only their barrier missing.
func (l *Log) settle(retry bool) error {
	if l.cur == nil {
		// Only a retry finds no open segment, and the only post-write
		// failure that releases the handle is a rotation whose Close failed
		// — after its fsync succeeded, so the records are durable and sealed.
		return nil
	}
	if retry || l.opt.Sync == SyncEachBatch {
		if err := l.Sync(); err != nil {
			return err
		}
	}
	if l.curSize >= l.opt.SegmentBytes {
		return l.rotate()
	}
	return nil
}

// repairTornWrite cuts a partially-written record off the current
// segment so the file ends at its last valid record boundary, then
// releases the handle; the next append opens a successor and the
// truncated segment seals clean. If the truncate itself fails the log
// is poisoned — appending past an unrepaired tear would corrupt it —
// and every later Append returns the sticky error.
func (l *Log) repairTornWrite() {
	name, size := l.curName, l.curSize
	if err := l.fs.Truncate(l.path(name), size); err != nil {
		l.closeCurrent()
		l.failed = &LogError{Segment: name, Offset: size,
			Err: fmt.Errorf("tear repair failed, log sealed: %w", err)}
		return
	}
	if l.cur != nil {
		// Best effort: push the repaired size to stable storage so a
		// crash cannot resurrect the torn bytes.
		l.cur.Sync()
	}
	l.closeCurrent()
}

// Sync forces everything appended so far onto stable storage — the
// fsync barrier past which recovery guarantees no loss. With nothing
// appended since the last barrier it issues none; a failed fsync leaves
// DurableSeq behind, so its retry still does.
func (l *Log) Sync() error {
	if l.cur == nil || l.durable == l.lastSeq {
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		return &LogError{Segment: l.curName, Offset: l.curSize, Err: err}
	}
	l.durable = l.lastSeq
	l.stats.Fsyncs++
	return nil
}

// rotate seals the current segment: fsync (sealed segments are durable
// under every policy), close, and let the next append open a successor.
func (l *Log) rotate() error {
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.cur.Close(); err != nil {
		l.cur = nil
		return &LogError{Segment: l.curName, Offset: l.curSize, Err: err}
	}
	l.cur = nil
	l.stats.Rotations++
	return nil
}

// openSegment creates the segment whose first record will be seq and
// makes its directory entry durable.
func (l *Log) openSegment(seq uint64) error {
	name := segName(seq)
	f, err := l.fs.Create(l.path(name))
	if err != nil {
		return &LogError{Segment: name, Err: err}
	}
	if n := len(l.segs); n == 0 || l.segs[n-1].name != name { // a retry re-creates the same file
		l.segs = append(l.segs, segInfo{name: name, base: seq})
	}
	hdr := encodeSegHeader(seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return &LogError{Segment: name, Err: err}
	}
	l.cur, l.curName, l.curSize = f, name, segHeaderSize
	if l.firstSeq == 0 {
		l.firstSeq = seq
	}
	if err := l.fs.SyncDir(l.opt.Dir); err != nil {
		return &LogError{Segment: name, Err: err}
	}
	return nil
}

// TruncateThrough removes every sealed segment whose records are all
// covered by sequences <= seq — retention keyed to the oldest retained
// checkpoint generation. The newest segment, the active one whenever a
// segment is open, is never removed. It walks the log's own index, not
// the directory.
func (l *Log) TruncateThrough(seq uint64) error {
	before, n := l.stats.Removed, 0
	var err error
	for ; n+1 < len(l.segs); n++ {
		s := l.segs[n]
		// All records of s are < l.segs[n+1].base.
		if l.segs[n+1].base > seq+1 {
			break
		}
		if rerr := l.fs.Remove(l.path(s.name)); rerr == nil {
			l.stats.Removed++
		} else if !errors.Is(rerr, iofs.ErrNotExist) { // already gone is as good as removed
			err = &LogError{Segment: s.name, Err: rerr}
			break
		}
		l.firstSeq = l.segs[n+1].base
	}
	l.segs = append(l.segs[:0], l.segs[n:]...)
	if err == nil && l.stats.Removed > before {
		err = l.fs.SyncDir(l.opt.Dir)
	}
	return err
}

// Reset discards the log's entire history: every segment is removed
// and the counters return to the empty-log state, so the next append
// may start at any sequence (the empty-log rule). A follower
// installing a shipped snapshot is the caller: records at or below
// the snapshot's sequence are superseded by it, and records above it
// belong to a history the cluster refused, so neither may ever be
// replayed again. The sticky append-failure state is cleared along
// with the bytes that caused it.
func (l *Log) Reset() error {
	l.closeCurrent()
	segs, err := listSegments(l.fs, l.opt.Dir)
	if err != nil {
		return err
	}
	for i, s := range segs {
		if err := l.fs.Remove(l.path(s.name)); err != nil {
			l.segs = segs[i:]
			return &LogError{Segment: s.name, Err: err}
		}
		l.stats.Removed++
	}
	l.segs = l.segs[:0]
	if len(segs) > 0 {
		if err := l.fs.SyncDir(l.opt.Dir); err != nil {
			return err
		}
	}
	l.curName, l.curSize = "", 0
	l.firstSeq, l.lastSeq, l.durable, l.settled = 0, 0, 0, 0
	l.failed = nil
	return nil
}

// Close flushes and closes the log. The final fsync makes a clean
// shutdown durable under every policy.
func (l *Log) Close() error {
	if l.cur == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.cur.Close(); err == nil && cerr != nil {
		err = &LogError{Segment: l.curName, Offset: l.curSize, Err: cerr}
	}
	l.cur = nil
	return err
}

func (l *Log) closeCurrent() {
	if l.cur != nil {
		l.cur.Close()
		l.cur = nil
	}
}

func (l *Log) path(name string) string { return l.opt.Dir + "/" + name }
