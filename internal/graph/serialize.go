package graph

import (
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
// encodes into a fixed chunk handed to w whenever it fills, so a writer
// never holds more than the chunk; the first write error sticks and is
// returned by flush.
type binaryEncoder struct {
	w   io.Writer
	buf []byte
	err error
}

// newBinaryEncoder starts a graph of the given shape.
func newBinaryEncoder(w io.Writer, numVertices, numEdges int) *binaryEncoder {
	e := &binaryEncoder{w: w, buf: make([]byte, 0, 64<<10)}
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

func (e *binaryEncoder) flush() error {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
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
	return e.flush()
}

// WriteBinary serialises the store in one pass, byte-identical to
// Seal().WriteBinary without building the snapshot: the degree array is
// the offsets array, and a row not already in order is sorted as packed
// dst<<32|weight keys in one scratch sized to the largest row — O(max
// degree) transient memory instead of O(E).
func (st *Store) WriteBinary(w io.Writer) error {
	e := newBinaryEncoder(w, st.numVertices, st.numEdges)
	var off uint64
	var maxDeg uint32
	for _, d := range st.out.deg {
		e.u64(off)
		off += uint64(d)
		maxDeg = max(maxDeg, d)
	}
	e.u64(off)
	keys := make([]uint64, 0, maxDeg)
	for v := range st.out.deg {
		if e.err != nil {
			break
		}
		ns, ws := st.out.edges(VertexID(v))
		if slices.IsSorted(ns) {
			for i, u := range ns {
				e.edge(u, math.Float32bits(ws[i]))
			}
			continue
		}
		keys = keys[:0]
		for i, u := range ns {
			keys = append(keys, uint64(u)<<32|uint64(math.Float32bits(ws[i])))
		}
		slices.Sort(keys)
		for _, k := range keys {
			e.edge(VertexID(k>>32), uint32(k))
		}
	}
	return e.flush()
}

// ReadBinary deserialises a snapshot written by WriteBinary and rebuilds
// the CSC mirror. b must be exactly one encoded graph: the header has to
// account for every byte before anything is allocated from it.
func ReadBinary(b []byte) (*Snapshot, error) {
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
	buildCSC(s)
	return s, nil
}
