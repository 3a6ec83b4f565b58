package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary snapshot format ("TDG2"): a fixed header, the CSR offsets, then
// every edge as one interleaved pair in row order, destinations sorted
// within a row. Interleaving (TDG1 kept destinations and weights in two
// sections) is what lets a writer that holds one row at a time — the
// mutable Store — emit the whole format in a single pass. Loading
// rebuilds the CSC mirror rather than storing it (it is derived data).
//
//	magic   uint32  "TDG2"
//	V       uint64
//	E       uint64
//	offsets (V+1) × uint64
//	edges   E × (dst uint32, weight float32 bits)
const (
	snapshotMagic    = 0x54444732 // "TDG2"
	binaryHeaderSize = 4 + 8 + 8
)

// BinarySize is the exact encoded length of a graph with the given
// shape, so a framing layer can declare a length before streaming.
func BinarySize(numVertices, numEdges int) uint64 {
	return binaryHeaderSize + 8*uint64(numVertices+1) + 8*uint64(numEdges)
}

// binaryEncoder is the one place the TDG2 layout is written down. It
// encodes straight into its writer's free buffer and hands each filled
// stretch back with Write, so it holds no chunk of its own; the first
// write error sticks and is returned by finish.
type binaryEncoder struct {
	w   bufferedWriter
	buf []byte
	err error
}

// bufferedWriter lends its free buffer to an encoder (AvailableBuffer)
// and empties it on Flush: a bufio.Writer, or a checkpoint block.
type bufferedWriter interface {
	io.Writer
	AvailableBuffer() []byte
	Flush() error
}

// newBinaryEncoder starts a graph of the given shape on w, giving a
// writer that cannot lend a buffer a 64 KiB bufio.Writer.
func newBinaryEncoder(w io.Writer, numVertices, numEdges int) *binaryEncoder {
	bw, ok := w.(bufferedWriter)
	if !ok {
		bw = bufio.NewWriterSize(w, 64<<10)
	}
	e := &binaryEncoder{w: bw}
	e.flush()
	e.buf = binary.LittleEndian.AppendUint32(e.buf, snapshotMagic)
	e.u64(uint64(numVertices))
	e.u64(uint64(numEdges))
	return e
}

func (e *binaryEncoder) u64(v uint64) {
	if len(e.buf)+8 > cap(e.buf) {
		e.flush()
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// edge appends one (dst, weight) pair: two little-endian uint32s, which
// is the little-endian uint64 with dst in the low half.
func (e *binaryEncoder) edge(dst VertexID, weightBits uint32) {
	e.u64(uint64(weightBits)<<32 | uint64(dst))
}

// flush hands the encoded stretch to w and takes w's free buffer back,
// emptying it first if it has no room for a word. After an error the
// rest is encoded into buf and dropped.
func (e *binaryEncoder) flush() {
	if e.err == nil {
		if _, e.err = e.w.Write(e.buf); e.err == nil && cap(e.w.AvailableBuffer()) < 8 {
			e.err = e.w.Flush()
		}
	}
	if e.err != nil {
		e.buf = e.buf[:0]
		return
	}
	e.buf = e.w.AvailableBuffer()
}

// finish hands over the last stretch and flushes w, returning the first
// write error.
func (e *binaryEncoder) finish() error {
	if e.flush(); e.err == nil {
		e.err = e.w.Flush()
	}
	return e.err
}

// WriteBinary serialises the snapshot's CSR side.
func (s *Snapshot) WriteBinary(w io.Writer) error {
	e := newBinaryEncoder(w, s.NumVertices, s.NumEdges())
	for _, o := range s.Offsets {
		e.u64(o)
	}
	for i, d := range s.Neighbors {
		e.edge(d, math.Float32bits(s.Weights[i]))
	}
	return e.finish()
}

// WriteBinary serialises the store in one pass, byte-identical to
// Seal().WriteBinary without building the snapshot: the degree array is
// the offsets array, and a row not already in order — any row of more
// than one run — is sorted as packed dst<<32|weight keys in a scratch
// sized to the largest row and kept for the next call — O(max degree)
// memory instead of O(E).
func (st *Store) WriteBinary(w io.Writer) error {
	e := newBinaryEncoder(w, st.numVertices, st.numEdges)
	var off uint64
	var maxDeg uint32
	for _, h := range st.out.hdr {
		e.u64(off)
		off += uint64(h.deg)
		maxDeg = max(maxDeg, h.deg)
	}
	e.u64(off)
	st.sortKeys = slices.Grow(st.sortKeys[:0], int(maxDeg))
	keys := st.sortKeys
	for v, h := range st.out.hdr {
		if e.err != nil {
			break
		}
		ns, ws := st.out.run(VertexID(v), 0)
		if h.deg <= storeLinearMax && slices.IsSorted(ns) {
			for i, u := range ns {
				e.edge(u, math.Float32bits(ws[i]))
			}
			continue
		}
		keys = keys[:0]
		for r := 1; len(ns) > 0; r++ {
			for i, u := range ns {
				keys = append(keys, uint64(u)<<32|uint64(math.Float32bits(ws[i])))
			}
			ns, ws = st.out.run(VertexID(v), r)
		}
		slices.Sort(keys)
		for _, k := range keys {
			e.edge(VertexID(k>>32), uint32(k))
		}
	}
	return e.finish()
}

// ReadBinary deserialises a snapshot written by WriteBinary and rebuilds
// the CSC mirror: ReadBinaryCSR, then the mirror.
func ReadBinary(b []byte) (*Snapshot, error) {
	s, err := ReadBinaryCSR(b)
	if err != nil {
		return nil, err
	}
	buildCSC(s)
	return s, nil
}

// ReadBinaryCSR deserialises a snapshot written by WriteBinary without
// its CSC mirror, for a caller that builds the mirror off its critical
// path (StartStoreFromSnapshot does, on its loader goroutine). b must
// be exactly one encoded graph: the header has to account for every
// byte before anything is allocated from it.
func ReadBinaryCSR(b []byte) (*Snapshot, error) {
	if len(b) < binaryHeaderSize || binary.LittleEndian.Uint32(b) != snapshotMagic {
		return nil, fmt.Errorf("graph: %d bytes without the snapshot magic %#x", len(b), uint32(snapshotMagic))
	}
	v, e := binary.LittleEndian.Uint64(b[4:]), binary.LittleEndian.Uint64(b[12:])
	const maxReasonable = 1 << 33
	if v > maxReasonable || e > maxReasonable || uint64(len(b)) != BinarySize(int(v), int(e)) {
		return nil, fmt.Errorf("graph: snapshot header (V=%d, E=%d) does not describe %d bytes", v, e, len(b))
	}
	s := &Snapshot{
		NumVertices: int(v),
		Offsets:     make([]uint64, v+1),
		Neighbors:   make([]VertexID, e),
		Weights:     make([]float32, e),
	}
	offsets, edges := b[binaryHeaderSize:binaryHeaderSize+8*(v+1)], b[binaryHeaderSize+8*(v+1):]
	for i := range s.Offsets {
		s.Offsets[i] = binary.LittleEndian.Uint64(offsets[8*i:])
	}
	for i := range s.Neighbors {
		s.Neighbors[i] = binary.LittleEndian.Uint32(edges[8*i:])
		s.Weights[i] = math.Float32frombits(binary.LittleEndian.Uint32(edges[8*i+4:]))
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
