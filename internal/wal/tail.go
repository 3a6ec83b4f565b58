package wal

import (
	"errors"
	"fmt"
	"io"
)

// ErrCaughtUp is Tailer.Next's "no more for now": every complete record
// currently in the log has been returned. The tailer keeps its
// position; a later Next resumes where it stopped and picks up records
// appended (and segments rotated) in the meantime.
var ErrCaughtUp = errors.New("wal: tailer caught up")

// ErrCompacted reports a tail position the log no longer retains: the
// wanted sequence is older than the oldest surviving segment, so the
// records can never be produced from this log again. A follower this
// far behind needs a full state transfer, not replay.
var ErrCompacted = errors.New("wal: sequence already compacted by retention")

// Tailer reads a log's records in sequence order, following the active
// segment across rotation — the replication primary's shipping source.
// It opens segment files read-only through the log's FS and never
// mutates the log, so it can run against a directory another process
// (or the owning Log, from the same goroutine) is appending to.
//
// A torn or incomplete record at the end of the *last* segment is not
// an error: it is an append in flight, reported as ErrCaughtUp and
// re-read from the last whole-record boundary on the next call. The
// same damage in a sealed segment (one with a successor) is real
// corruption and fails with a *LogError wrapping ErrCorrupt.
//
// Tailer is not safe for concurrent use.
type Tailer struct {
	fs   FS
	dir  string
	next uint64 // next sequence Next will return

	// Read position: the record boundary off in seg, whose record must
	// carry atSeq. It outlives the open reader, so Next after Close (or
	// after ErrCaughtUp) reopens and resumes. seg.name == "" means no
	// segment is selected yet.
	seg   segInfo
	off   int64
	atSeq uint64
	r     *segReader
}

// NewTailer returns a tailer positioned to produce record `from` first
// (0 means from sequence 1). Only opt.Dir and opt.FS are used.
func NewTailer(opt Options, from uint64) *Tailer {
	opt = opt.withDefaults()
	if from == 0 {
		from = 1
	}
	return &Tailer{fs: opt.FS, dir: opt.Dir, next: from}
}

// Close releases the tailer's open segment handle. The position is
// kept: Next after Close reopens and resumes.
func (t *Tailer) Close() error {
	if t.r != nil {
		t.r.close()
		t.r = nil
	}
	return nil
}

// Next returns the next record in sequence order, or ErrCaughtUp when
// the log currently ends before it, or ErrCompacted when retention has
// already dropped it.
func (t *Tailer) Next() (uint64, []byte, error) {
	for {
		if t.r == nil {
			if err := t.open(); err != nil {
				return 0, nil, err
			}
		}
		seq, payload, err := t.r.next()
		if err != nil {
			t.Close()
			if err := t.endOfSegment(err); err != nil {
				return 0, nil, err
			}
			continue
		}
		t.off, t.atSeq = t.r.off, t.r.want
		if seq >= t.next {
			t.next = seq + 1
			return seq, payload, nil
		}
		// Record below the requested start: skip it.
	}
}

// endOfSegment judges what stopped the reader at the tailer's position.
// In the log's last segment both a clean boundary and bytes that do not
// parse yet mean the same thing — nothing more for now. A segment with
// a successor is sealed: it must end cleanly, and the tailer moves to
// the successor, which must start at the very next sequence.
func (t *Tailer) endOfSegment(cause error) error {
	if cause != io.EOF && !errors.Is(cause, ErrTorn) {
		return cause
	}
	segs, err := listSegments(t.fs, t.dir)
	if err != nil {
		return err
	}
	i := 0
	for i < len(segs) && segs[i].base <= t.seg.base {
		i++
	}
	if i == len(segs) {
		return ErrCaughtUp
	}
	if cause != io.EOF {
		return &LogError{Segment: t.seg.name, Offset: t.off,
			Err: fmt.Errorf("%w: %w in a sealed segment", ErrCorrupt, cause)}
	}
	t.seg, t.off = segs[i], 0
	return nil
}

// open (re)opens the segment holding the tailer's position at the saved
// record boundary. When no segment is selected yet — or retention
// removed the one the tailer was parked on — it picks the one
// containing t.next.
func (t *Tailer) open() error {
	segs, err := listSegments(t.fs, t.dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return ErrCaughtUp
	}
	parked := false
	for _, s := range segs {
		parked = parked || s.name == t.seg.name
	}
	if !parked {
		if t.next < segs[0].base {
			return fmt.Errorf("%w: want seq %d, oldest retained segment starts at %d",
				ErrCompacted, t.next, segs[0].base)
		}
		for _, s := range segs {
			if s.base <= t.next {
				t.seg = s
			}
		}
		t.off, t.atSeq = 0, 0
	}
	r, err := openSegReader(t.fs, t.dir, t.seg, t.off, t.atSeq)
	if err != nil {
		return t.endOfSegment(err)
	}
	t.r, t.off, t.atSeq = r, r.off, r.want
	return nil
}

// EndSeq reports the sequence of the last complete record in the log
// directory, 0 when the log is empty. Only the newest segment is
// scanned, so the cost is bounded by one segment regardless of log
// size. A torn record at the tail is excluded, matching what recovery
// would keep — an append that never completed was never acknowledged.
func EndSeq(opt Options) (uint64, error) {
	opt = opt.withDefaults()
	segs, err := listSegments(opt.FS, opt.Dir)
	if err != nil || len(segs) == 0 {
		return 0, err
	}
	base := segs[len(segs)-1].base
	// A freshly rotated segment may hold no records yet; the log then
	// ends at the sequence the rotation sealed, base-1.
	tl := NewTailer(opt, base)
	defer tl.Close()
	end := base - 1
	for {
		seq, _, err := tl.Next()
		if err != nil {
			if errors.Is(err, ErrCaughtUp) {
				return end, nil
			}
			return 0, err
		}
		end = seq
	}
}

// StartSeq returns the base sequence of the oldest retained segment
// under opt — the earliest record a Tailer can still produce — or 0
// when the directory holds no segments. It reads the directory, not an
// open Log, so it reports what retention left on disk.
func StartSeq(opt Options) (uint64, error) {
	opt = opt.withDefaults()
	segs, err := listSegments(opt.FS, opt.Dir)
	if err != nil || len(segs) == 0 {
		return 0, err
	}
	return segs[0].base, nil
}
