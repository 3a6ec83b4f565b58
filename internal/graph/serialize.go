package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary snapshot format: a fixed header followed by the CSR arrays.
// Loading rebuilds the CSC mirror rather than storing it (it is derived
// data and compresses to nothing anyway).
//
//	magic   uint32  "TDG1"
//	V       uint64
//	E       uint64
//	offsets (V+1) × uint64
//	dsts    E × uint32
//	weights E × float32 bits
const snapshotMagic = 0x54444731 // "TDG1"

// WriteBinary serialises the snapshot's CSR side.
func (s *Snapshot) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var scratch [8]byte
	put32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	put64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := bw.Write(scratch[:8])
		return err
	}
	if err := put32(snapshotMagic); err != nil {
		return err
	}
	if err := put64(uint64(s.NumVertices)); err != nil {
		return err
	}
	if err := put64(uint64(s.NumEdges())); err != nil {
		return err
	}
	for _, o := range s.Offsets {
		if err := put64(o); err != nil {
			return err
		}
	}
	for _, d := range s.Neighbors {
		if err := put32(d); err != nil {
			return err
		}
	}
	for _, w := range s.Weights {
		if err := put32(math.Float32bits(w)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary deserialises a snapshot written by WriteBinary and rebuilds
// the CSC mirror.
func ReadBinary(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	var scratch [8]byte
	get32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	get64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	magic, err := get32()
	if err != nil {
		return nil, err
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("graph: bad snapshot magic %#x", magic)
	}
	v, err := get64()
	if err != nil {
		return nil, err
	}
	e, err := get64()
	if err != nil {
		return nil, err
	}
	const maxReasonable = 1 << 33
	if v > maxReasonable || e > maxReasonable {
		return nil, fmt.Errorf("graph: implausible snapshot header (V=%d, E=%d)", v, e)
	}
	s := &Snapshot{
		NumVertices: int(v),
		Offsets:     make([]uint64, v+1),
		Neighbors:   make([]VertexID, e),
		Weights:     make([]float32, e),
	}
	for i := range s.Offsets {
		if s.Offsets[i], err = get64(); err != nil {
			return nil, err
		}
	}
	for i := range s.Neighbors {
		d, err := get32()
		if err != nil {
			return nil, err
		}
		s.Neighbors[i] = d
	}
	for i := range s.Weights {
		bits, err := get32()
		if err != nil {
			return nil, err
		}
		s.Weights[i] = math.Float32frombits(bits)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	buildCSC(s)
	return s, nil
}
