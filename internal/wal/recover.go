package wal

import (
	"errors"
	"fmt"
	"io"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// Recovery describes what Open found and repaired.
type Recovery struct {
	Segments int    // segment files scanned
	Records  int    // valid records found
	LastSeq  uint64 // highest valid sequence (0 = empty log)
	// TornSegment is non-empty when the final segment ended in a torn
	// record and was truncated back to TornOffset, dropping DroppedBytes.
	TornSegment  string
	TornOffset   int64
	DroppedBytes int64
	// RemovedSegment is non-empty when the final segment had no valid
	// header at all (a crash between create and the first write) and was
	// deleted outright.
	RemovedSegment string
}

// Repaired reports whether Open had to truncate or remove anything.
func (r Recovery) Repaired() bool { return r.TornSegment != "" || r.RemovedSegment != "" }

// Open opens (or creates the state for) the log in opt.Dir, repairing a
// torn tail: the final segment is truncated back to its last valid
// record, and a final segment without a valid header is removed. Damage
// a crash cannot produce — corruption in sealed segments, sequence
// gaps — fails with a *LogError wrapping ErrCorrupt instead, because
// replaying around it would silently lose acknowledged batches.
//
// The returned log appends strictly after the recovered tail. Replay
// must be called before the first Append.
func Open(opt Options) (*Log, Recovery, error) {
	opt = opt.withDefaults()
	l := &Log{opt: opt, fs: opt.FS}
	var rec Recovery

	segs, err := listSegments(l.fs, opt.Dir)
	if err != nil {
		return nil, rec, err
	}
	rec.Segments = len(segs)

	next := uint64(0) // sequence the next segment must start at (0 = any)
	for i, seg := range segs {
		res, err := l.scanSegment(seg, next, nil)
		if err != nil {
			return nil, rec, err
		}
		rec.Records += res.records
		next = res.next

		switch {
		case res.damage == nil:
			// Clean segment.
		case i < len(segs)-1:
			// Damage before the final segment cannot be a crash tail.
			return nil, rec, &LogError{Segment: seg.name, Offset: res.validEnd,
				Err: fmt.Errorf("%w: %w in a sealed segment", ErrCorrupt, res.damage)}
		case res.validEnd == 0:
			// The final segment never got a valid header: remove it.
			if err := l.fs.Remove(l.path(seg.name)); err != nil {
				return nil, rec, &LogError{Segment: seg.name, Err: err}
			}
			if err := l.fs.SyncDir(opt.Dir); err != nil {
				return nil, rec, err
			}
			rec.RemovedSegment = seg.name
		default: // a torn record in the final segment: truncate the tear.
			if err := l.fs.Truncate(l.path(seg.name), res.validEnd); err != nil {
				return nil, rec, &LogError{Segment: seg.name, Offset: res.validEnd, Err: err}
			}
			if err := l.fs.SyncDir(opt.Dir); err != nil {
				return nil, rec, err
			}
			rec.TornSegment = seg.name
			rec.TornOffset = res.validEnd
			rec.DroppedBytes = res.size - res.validEnd
		}
	}

	if next != 0 {
		l.lastSeq = next - 1
	}
	l.durable, l.settled = l.lastSeq, l.lastSeq // whatever survived on disk is, by survival, durable
	if rec.RemovedSegment != "" {
		segs = segs[:len(segs)-1]
	}
	l.segs = segs
	if len(segs) > 0 {
		l.firstSeq = segs[0].base
	}
	rec.LastSeq = l.lastSeq
	return l, rec, nil
}

// Replay streams every recovered batch with sequence >= from to fn, in
// sequence order, from the segments Open indexed. It must run after Open
// and before the first Append.
func (l *Log) Replay(from uint64, fn func(seq uint64, batch []graph.Update) error) error {
	segs := l.segs
	next := uint64(0)
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].base <= from {
			// Every record here is < segs[i+1].base <= from: skip, but
			// keep continuity tracking honest for the next segment.
			next = segs[i+1].base
			continue
		}
		res, err := l.scanSegment(seg, next, func(seq uint64, payload []byte) error {
			if seq < from {
				return nil
			}
			batch, err := DecodeBatch(payload)
			if err != nil {
				return &LogError{Segment: seg.name, Err: err}
			}
			return fn(seq, batch)
		})
		if err != nil {
			return err
		}
		if res.damage != nil {
			// Open already repaired the tail; damage now means the files
			// changed underneath us.
			return &LogError{Segment: seg.name, Offset: res.validEnd,
				Err: fmt.Errorf("%w: %w after recovery", ErrCorrupt, res.damage)}
		}
		next = res.next
	}
	return nil
}

type scanResult struct {
	records  int
	next     uint64 // sequence the following segment must start at (0 = any)
	validEnd int64  // offset just past the last valid record (0 = no valid header)
	size     int64  // total bytes in the file, filled in when damage != nil
	damage   error  // the ErrTorn-wrapping cause when the scan met bytes that do not parse
}

// scanSegment reads one segment through the segment reader, handing each
// record's payload to emit. The segment must start at sequence next (0 =
// anywhere). Damage is reported, not judged: the caller decides whether
// it is a repairable tail or corruption.
func (l *Log) scanSegment(seg segInfo, next uint64, emit func(seq uint64, payload []byte) error) (scanResult, error) {
	res := scanResult{next: next}
	r, err := openSegReader(l.fs, l.opt.Dir, seg, 0, next)
	if errors.Is(err, ErrTorn) {
		res.damage = err
		return res, nil
	}
	if err != nil {
		return res, err
	}
	defer r.close()
	for {
		seq, payload, err := r.next()
		res.validEnd, res.next = r.off, r.want
		switch {
		case err == io.EOF:
			return res, nil
		case errors.Is(err, ErrTorn):
			res.damage, res.size = err, r.drain()
			return res, nil
		case err != nil:
			return res, err
		}
		res.records++
		if emit != nil {
			if err := emit(seq, payload); err != nil {
				return res, err
			}
		}
	}
}
