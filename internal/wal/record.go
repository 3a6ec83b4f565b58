package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// updateBytes is the fixed wire size of one update inside a record
// payload: src u32 | dst u32 | weight-bits u32 | flags u8.
const updateBytes = 13

const flagDelete = 1 << 0

func encodeSegHeader(baseSeq uint64) [segHeaderSize]byte {
	var hdr [segHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], segVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], baseSeq)
	return hdr
}

// appendRecord frames a payload onto dst: seq u64 | len u32 | crc u32 |
// payload, the CRC covering seq, length and payload together so no
// field can be torn or flipped undetected. The one record encoder; Log
// keeps dst between appends, so a steady-state append allocates nothing
// (TestRecordCodecAllocs).
func appendRecord(dst []byte, seq uint64, payload []byte) []byte {
	hdr := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	crc := crc32.Update(crc32.ChecksumIEEE(dst[hdr:]), crc32.IEEETable, payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return append(dst, payload...)
}

// EncodeBatch serialises a batch as a record payload: count u32 then a
// fixed 13-byte frame per update. Canonical: DecodeBatch accepts only
// what EncodeBatch emits, so members log and ship the bytes they received.
func EncodeBatch(batch []graph.Update) []byte {
	p := make([]byte, 4+updateBytes*len(batch))
	binary.LittleEndian.PutUint32(p[0:4], uint32(len(batch)))
	off := 4
	for _, u := range batch {
		binary.LittleEndian.PutUint32(p[off:], u.Edge.Src)
		binary.LittleEndian.PutUint32(p[off+4:], u.Edge.Dst)
		binary.LittleEndian.PutUint32(p[off+8:], math.Float32bits(u.Edge.Weight))
		if u.Delete {
			p[off+12] = flagDelete
		}
		off += updateBytes
	}
	return p
}

// DecodeBatch parses an EncodeBatch payload into a fresh slice.
func DecodeBatch(p []byte) ([]graph.Update, error) { return AppendBatch(nil, p) }

// AppendBatch is DecodeBatch onto the end of dst: the batch is the tail
// of the returned slice. A session decodes a commit group's payloads back
// to back into one arena this way and truncates it between rounds; an
// empty dst grown past a MaxRetainedBuffer payload's worth of updates is
// let go first, so a huge batch pins nothing. The payload has passed its
// record or frame CRC, so a shape mismatch — a length that contradicts
// the count, a flag bit EncodeBatch never sets — is content corruption,
// not a torn write; dst is then returned as it came.
func AppendBatch(dst []graph.Update, p []byte) ([]graph.Update, error) {
	if len(p) < 4 {
		return dst, fmt.Errorf("%w: payload of %d bytes has no count", ErrCorrupt, len(p))
	}
	n := binary.LittleEndian.Uint32(p[0:4])
	if uint64(len(p)) != 4+updateBytes*uint64(n) {
		return dst, fmt.Errorf("%w: payload is %d bytes for %d updates", ErrCorrupt, len(p), n)
	}
	if len(dst) == 0 && cap(dst) > MaxRetainedBuffer/updateBytes {
		dst = nil
	}
	at := len(dst)
	dst = slices.Grow(dst, int(n))[:at+int(n)]
	if unknown := decodeUpdates(dst[at:], p[4:]); unknown != 0 {
		return dst[:at], fmt.Errorf("%w: update flags carry unknown bits %#x", ErrCorrupt, unknown)
	}
	return dst, nil
}

// decodeUpdates fills dst from len(dst) update frames and returns the
// union of every flag bit other than flagDelete it saw (0 = canonical).
// It allocates nothing (TestRecordCodecAllocs).
func decodeUpdates(dst []graph.Update, p []byte) (unknown byte) {
	for i := range dst {
		f := p[i*updateBytes : (i+1)*updateBytes]
		dst[i] = graph.Update{
			Edge: graph.Edge{
				Src:    binary.LittleEndian.Uint32(f[0:]),
				Dst:    binary.LittleEndian.Uint32(f[4:]),
				Weight: math.Float32frombits(binary.LittleEndian.Uint32(f[8:])),
			},
			Delete: f[12]&flagDelete != 0,
		}
		unknown |= f[12] &^ flagDelete
	}
	return unknown
}
