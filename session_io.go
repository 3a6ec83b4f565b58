package tdgraph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// Checkpoint format v4: a fixed header followed by three checksummed
// blocks.
//
//	header:      magic uint32 | version uint32
//	meta block:  payloadLen uint64 | payload | crc32(payload) uint32
//	graph block: payloadLen uint64 | payload | crc32(payload) uint32
//	state block: payloadLen uint64 | payload | crc32(payload) uint32
//
// The meta payload is the caller's opaque bytes (the serve pipeline
// stores the WAL sequence the checkpoint covers): first, so a generation
// says what it covers in its first few dozen bytes, and in the same file
// as the state it describes, so neither exists without the other. The
// graph payload is the graph package's binary format (TDG2); the state
// payload is count uint64 followed by count float64 bit patterns. All
// integers little-endian. The CRC (IEEE) trails its payload — v3 put it
// ahead, which forced a writer to hold the whole payload (or traverse
// the graph twice) before the first byte could go out; trailing, every
// block is streamed once while the checksum accumulates. The length
// still leads, so the loader reads a whole block, verifies it, and only
// then interprets a byte of it. The CRC covers only the payload, so a
// torn tail is distinguishable from a bit flip: a short read inside any
// field reports ErrCheckpointTruncated, a checksum mismatch reports
// ErrCheckpointCorrupt. The magic tags the versioned-header family v2
// introduced; the version field names the format, and any other version
// (v2 and v3 included — there is one read path) is rejected as
// unsupported. Algorithms are not serialised — the caller supplies the
// same algorithm on load (its parameters, like the SSSP root, are part
// of the caller's configuration).
const (
	checkpointMagic   = 0x54445332 // "TDS2"
	checkpointVersion = 4
	// maxMetaBytes bounds the meta block on both sides: a save refuses a
	// larger payload, so every written generation is readable.
	maxMetaBytes = 1 << 16
	// maxStateEntries bounds the state block so a corrupted count cannot
	// drive allocation; matches the graph deserialiser's own sanity cap.
	maxStateEntries = 1 << 33
	// ckptChunk is the size of the session's one file buffer, which every
	// save reuses whatever the graph's size.
	ckptChunk = 64 << 10
)

// ErrCheckpointTruncated reports a checkpoint that ends mid-field — the
// torn write left by a crash or a truncation fault.
var ErrCheckpointTruncated = errors.New("tdgraph: checkpoint truncated")

// ErrCheckpointCorrupt reports a checkpoint whose bytes are present but
// wrong: bad magic, unsupported version, checksum mismatch, or
// inconsistent block contents.
var ErrCheckpointCorrupt = errors.New("tdgraph: checkpoint corrupt")

// CheckpointError wraps a checkpoint load failure with the stage that
// detected it; errors.Is sees through it to ErrCheckpointTruncated /
// ErrCheckpointCorrupt and to any underlying I/O error.
type CheckpointError struct {
	Stage string // "header" | "meta" | "graph" | "state"
	Err   error
}

func (e *CheckpointError) Error() string {
	return fmt.Sprintf("tdgraph: checkpoint %s block: %v", e.Stage, e.Err)
}

func (e *CheckpointError) Unwrap() error { return e.Err }

// ckptErr wraps err for stage, folding the raw EOF shapes io gives us
// for short reads into the typed truncation sentinel.
func ckptErr(stage string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		err = fmt.Errorf("%w (%w)", ErrCheckpointTruncated, err)
	}
	return &CheckpointError{Stage: stage, Err: err}
}

func ckptCorrupt(stage, detail string, args ...any) error {
	return &CheckpointError{Stage: stage, Err: fmt.Errorf("%w: %s", ErrCheckpointCorrupt, fmt.Sprintf(detail, args...))}
}

// Save checkpoints the session (graph + converged states) to w in format
// v4 with an empty meta block.
func (s *Session) Save(w io.Writer) error { return s.save(w, nil) }

// save streams the checkpoint with meta in-band, in one pass and without
// materialising anything: each block's length is declared, its payload
// is encoded straight into the session's reused file buffer while the
// CRC accumulates — the graph from the engine's store, then the states
// — and the CRC trails it. A block that streams a different number of
// bytes than declared fails the save, so nothing is published.
func (s *Session) save(w io.Writer, meta []byte) error {
	if len(meta) > maxMetaBytes {
		return fmt.Errorf("tdgraph: checkpoint meta is %d bytes, limit %d", len(meta), maxMetaBytes)
	}
	nstates, state := s.stateView()
	// A bufio.Writer's first write error sticks, so the framing words go
	// unchecked: the next block writer, or Flush, reports it.
	if s.ckptBuf == nil {
		s.ckptBuf = bufio.NewWriterSize(nil, ckptChunk)
	}
	bw := s.ckptBuf
	bw.Reset(w)
	defer bw.Reset(nil) // hold the buffer, not the caller's writer
	var word [8]byte
	binary.LittleEndian.PutUint32(word[:4], checkpointMagic)
	binary.LittleEndian.PutUint32(word[4:], checkpointVersion)
	bw.Write(word[:])
	for _, blk := range []struct {
		stage string
		size  uint64
		write func(*blockWriter) error
	}{
		{"meta", uint64(len(meta)), func(w *blockWriter) error { _, err := w.Write(meta); return err }},
		{"graph", graph.BinarySize(s.NumVertices(), s.NumEdges()), func(w *blockWriter) error { return writeGraph(s.store, w) }},
		{"state", 8 + 8*uint64(nstates), func(w *blockWriter) error { return writeStates(w, nstates, state) }},
	} {
		binary.LittleEndian.PutUint64(word[:], blk.size)
		bw.Write(word[:])
		payload := blockWriter{bw: bw}
		if err := blk.write(&payload); err != nil {
			return err
		}
		if payload.n != blk.size {
			return fmt.Errorf("tdgraph: checkpoint %s block streamed %d bytes, declared %d", blk.stage, payload.n, blk.size)
		}
		binary.LittleEndian.PutUint32(word[:4], payload.crc)
		bw.Write(word[:4])
	}
	return bw.Flush()
}

// writeGraph streams the graph block straight from the store, nothing
// sealed. A test hook, so a save can fail inside the block.
var writeGraph = func(st *graph.Store, w io.Writer) error { return st.WriteBinary(w) }

// blockWriter is one block's payload on its way out: every write is
// counted and checksummed as it passes to the file buffer.
type blockWriter struct {
	bw  *bufio.Writer
	crc uint32
	n   uint64
}

func (b *blockWriter) Write(p []byte) (int, error) {
	b.crc = crc32.Update(b.crc, crc32.IEEETable, p)
	b.n += uint64(len(p))
	return b.bw.Write(p)
}

// AvailableBuffer and Flush lend the file buffer to a payload encoder,
// which appends into the free space and passes it back through Write.
func (b *blockWriter) AvailableBuffer() []byte { return b.bw.AvailableBuffer() }
func (b *blockWriter) Flush() error            { return b.bw.Flush() }

// writeStates encodes the n states state reads straight into the file
// buffer.
func writeStates(w *blockWriter, n int, state func(v int) float64) error {
	buf := binary.LittleEndian.AppendUint64(w.AvailableBuffer(), uint64(n))
	for v := 0; v < n; v++ {
		if len(buf)+8 > cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
			buf = w.AvailableBuffer()
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(state(v)))
	}
	_, err := w.Write(buf)
	return err
}

// SaveFile checkpoints the session to path atomically with
// wal.ReplaceFile: the bytes are written to path+".tmp", synced to
// stable storage, renamed over path, and the parent directory is
// fsynced so the rename survives a crash — path always holds either the
// old complete checkpoint or the new one, even across power loss. A
// save killed before its rename leaves at most that one temp file
// behind, and the next save to path overwrites it. Saves to one path
// must therefore not overlap: give each path one writer, as
// serve.Pipeline is the only writer of its checkpoint generations.
func (s *Session) SaveFile(path string) error {
	return wal.ReplaceFile(wal.OSFS{}, path, s.Save)
}

// readBlock reads one length+payload+CRC block, verifying the checksum
// before returning the payload.
func readBlock(stage string, r io.Reader, maxLen uint64) ([]byte, error) {
	var word [8]byte
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return nil, ckptErr(stage, err)
	}
	plen := binary.LittleEndian.Uint64(word[:])
	if plen > maxLen {
		return nil, ckptCorrupt(stage, "implausible block length %d", plen)
	}
	// Payload and trailing CRC, into a buffer that grows as bytes arrive:
	// a damaged length costs a short read, not an allocation of its claim.
	var block bytes.Buffer
	if _, err := io.CopyN(&block, r, int64(plen)+4); err != nil {
		return nil, ckptErr(stage, err)
	}
	payload, wantCRC := block.Bytes()[:plen], binary.LittleEndian.Uint32(block.Bytes()[plen:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, ckptCorrupt(stage, "checksum mismatch: stored %08x, computed %08x", wantCRC, got)
	}
	return payload, nil
}

// readCheckpointMeta reads a checkpoint's header and meta block — all
// that is needed to learn what a generation covers without loading it.
func readCheckpointMeta(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, ckptErr("header", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[:4]); magic != checkpointMagic {
		return nil, ckptCorrupt("header", "bad magic %08x (want %08x)", magic, uint32(checkpointMagic))
	}
	if ver := binary.LittleEndian.Uint32(hdr[4:8]); ver != checkpointVersion {
		return nil, ckptCorrupt("header", "unsupported version %d (want %d)", ver, checkpointVersion)
	}
	return readBlock("meta", r, maxMetaBytes)
}

// LoadSession restores a checkpoint written by Save. The supplied
// algorithm must be the one the checkpoint was computed with (same
// parameters); states are restored verbatim, skipping the initial
// fixpoint computation. Malformed input is reported as a typed
// *CheckpointError wrapping ErrCheckpointTruncated or
// ErrCheckpointCorrupt — never a raw io error or a panic.
func LoadSession(a Algorithm, r io.Reader, opt SessionOptions) (*Session, error) {
	s, _, err := loadSession(a, r, opt)
	return s, err
}

// loadSession is LoadSession plus the checkpoint's meta payload.
func loadSession(a Algorithm, r io.Reader, opt SessionOptions) (*Session, []byte, error) {
	if a == nil {
		return nil, nil, fmt.Errorf("tdgraph: nil algorithm")
	}
	br := bufio.NewReader(r)
	meta, err := readCheckpointMeta(br)
	if err != nil {
		return nil, nil, err
	}

	gpayload, err := readBlock("graph", br, 1<<40)
	if err != nil {
		return nil, nil, err
	}
	snap, err := graph.ReadBinaryCSR(gpayload) // the store's loader goroutine builds the CSC
	if err != nil {
		// The payload passed its CRC, so a deserialisation failure means
		// the block content itself is inconsistent, not torn.
		return nil, nil, ckptCorrupt("graph", "%v", err)
	}

	spayload, err := readBlock("state", br, 8+8*uint64(maxStateEntries))
	if err != nil {
		return nil, nil, err
	}
	if len(spayload) < 8 {
		return nil, nil, ckptCorrupt("state", "block too short for count: %d bytes", len(spayload))
	}
	n := binary.LittleEndian.Uint64(spayload[:8])
	if int(n) != snap.NumVertices {
		return nil, nil, ckptCorrupt("state", "%d entries for %d vertices", n, snap.NumVertices)
	}
	if uint64(len(spayload)) != 8+8*n {
		return nil, nil, ckptCorrupt("state", "block is %d bytes for %d entries", len(spayload), n)
	}
	state := make([]float64, n)
	for i := range state {
		state[i] = math.Float64frombits(binary.LittleEndian.Uint64(spayload[8+8*i:]))
	}
	st, rows, loaded := graph.StartStoreFromSnapshot(snap)
	s, err := newSession(a, st, rows, loaded, state, opt)
	if err != nil {
		return nil, nil, err
	}
	s.rob = stats.NewCollector()
	s.validator = newValidator(opt, s.NumVertices(), s.rob)
	return s, meta, nil
}

// LoadSessionFile restores a checkpoint from path.
func LoadSessionFile(a Algorithm, path string, opt SessionOptions) (*Session, error) {
	s, _, err := loadSessionFile(wal.OSFS{}, a, path, opt)
	return s, err
}

func loadSessionFile(fsys wal.FS, a Algorithm, path string, opt SessionOptions) (*Session, []byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return loadSession(a, f, opt)
}
