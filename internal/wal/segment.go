package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

type segInfo struct {
	name string
	base uint64
}

// listSegments returns dir's segment files in sequence order (FS.List
// sorts names, and segment names are zero-padded base sequences).
func listSegments(fs FS, dir string) ([]segInfo, error) {
	names, err := fs.List(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, n := range names {
		if base, ok := parseSegName(n); ok {
			segs = append(segs, segInfo{name: n, base: base})
		}
	}
	return segs, nil
}

// segReader is the one parser of the segment format: recovery (Open,
// Replay) and replication shipping (Tailer) both read segments through
// it, so the bytes one accepts are the bytes the other accepts. It
// reports what it finds and judges nothing:
//
//   - io.EOF from next: the file ends exactly at a record boundary;
//   - an error wrapping ErrTorn (from openSegReader: the header; from
//     next: the record at off): bytes that do not parse — short,
//     implausible or checksum-failed. Whether that is a crash tail to
//     repair, an append in flight, or corruption depends on whether the
//     segment is the log's last, which only the caller knows;
//   - a *LogError wrapping ErrCorrupt: a whole, checksum-valid header or
//     record that contradicts the sequence — no tear explains it, so no
//     caller may read around it.
type segReader struct {
	seg  segInfo
	f    io.ReadCloser
	br   *bufio.Reader
	off  int64  // the next record boundary: just past the last whole record
	want uint64 // sequence the record at off must carry
	read int64  // bytes consumed so far (past off once a record failed part-way)
}

// openSegReader opens seg positioned at record boundary off, whose
// record must carry sequence want. off 0 is the start of the file: the
// header is validated first and the segment must begin at want (0 =
// wherever its name says — the oldest retained segment may start
// anywhere).
func openSegReader(fs FS, dir string, seg segInfo, off int64, want uint64) (*segReader, error) {
	f, err := fs.Open(dir + "/" + seg.name)
	if err != nil {
		return nil, &LogError{Segment: seg.name, Err: err}
	}
	r := &segReader{seg: seg, f: f, br: bufio.NewReader(f), off: off, want: want}
	if off > 0 {
		if _, err := r.br.Discard(int(off)); err != nil {
			f.Close()
			return nil, &LogError{Segment: seg.name, Offset: off,
				Err: fmt.Errorf("%w: segment shrank below a validated boundary", ErrCorrupt)}
		}
		r.read = off
		return r, nil
	}
	var hdr [segHeaderSize]byte
	_, err = io.ReadFull(r.br, hdr[:])
	switch {
	case err != nil:
		err = fmt.Errorf("%w: short segment header", ErrTorn)
	case binary.LittleEndian.Uint32(hdr[0:4]) != segMagic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != segVersion ||
		binary.LittleEndian.Uint64(hdr[8:16]) != seg.base:
		err = fmt.Errorf("%w: segment header does not match name", ErrTorn)
	case want != 0 && seg.base != want:
		err = &LogError{Segment: seg.name,
			Err: fmt.Errorf("%w: segment starts at seq %d, previous ended at %d", ErrCorrupt, seg.base, want-1)}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	r.off, r.read, r.want = segHeaderSize, segHeaderSize, seg.base
	return r, nil
}

// next returns the record at the current boundary and advances past it.
func (r *segReader) next() (seq uint64, payload []byte, err error) {
	var rh [recHeaderSize]byte
	n, err := io.ReadFull(r.br, rh[:])
	r.read += int64(n)
	if err == io.EOF {
		return 0, nil, io.EOF
	}
	if err != nil {
		return 0, nil, fmt.Errorf("%w: short record header", ErrTorn)
	}
	seq = binary.LittleEndian.Uint64(rh[0:8])
	plen := binary.LittleEndian.Uint32(rh[8:12])
	if plen > maxRecordPayload {
		return 0, nil, fmt.Errorf("%w: implausible payload length %d", ErrTorn, plen)
	}
	payload = make([]byte, plen)
	n, err = io.ReadFull(r.br, payload)
	r.read += int64(n)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: short payload", ErrTorn)
	}
	crc := crc32.Update(crc32.ChecksumIEEE(rh[0:12]), crc32.IEEETable, payload)
	if crc != binary.LittleEndian.Uint32(rh[12:16]) {
		return 0, nil, fmt.Errorf("%w: record checksum mismatch", ErrTorn)
	}
	if seq != r.want {
		// A CRC-valid record with the wrong sequence was written whole.
		return 0, nil, &LogError{Segment: r.seg.name, Offset: r.off,
			Err: fmt.Errorf("%w: record seq %d where %d expected", ErrCorrupt, seq, r.want)}
	}
	r.off += recHeaderSize + int64(plen)
	r.want++
	return seq, payload, nil
}

// drain consumes the rest of the file and returns its total size, so a
// caller truncating at off knows exactly how many bytes it drops.
func (r *segReader) drain() int64 {
	n, _ := io.Copy(io.Discard, r.br)
	r.read += n
	return r.read
}

func (r *segReader) close() { r.f.Close() }
