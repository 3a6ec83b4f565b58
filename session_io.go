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
	"os"
	"path/filepath"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// Checkpoint format v3 ("TDS3"): a fixed header followed by three
// checksummed blocks.
//
//	header:      magic uint32 | version uint32
//	meta block:  payloadLen uint64 | crc32(payload) uint32 | payload
//	graph block: payloadLen uint64 | crc32(payload) uint32 | payload
//	state block: payloadLen uint64 | crc32(payload) uint32 | payload
//
// The meta payload is the caller's opaque bytes (the serve pipeline
// stores the WAL sequence the checkpoint covers): first, so a generation
// says what it covers in its first few dozen bytes, and in the same file
// as the state it describes, so neither exists without the other. The
// graph payload is the snapshot's own binary format; the state payload
// is count uint64 followed by count float64 bit patterns. All integers
// little-endian. The CRC (IEEE) covers only the payload, so a torn tail
// is distinguishable from a bit flip: a short read inside any field
// reports ErrCheckpointTruncated, a checksum mismatch reports
// ErrCheckpointCorrupt. The magic tags the versioned-header family v2
// introduced; the version field names the format, and any other version
// (v2 included — there is one read path) is rejected as unsupported.
// Algorithms are not serialised — the caller supplies the same algorithm
// on load (its parameters, like the SSSP root, are part of the caller's
// configuration).
const (
	checkpointMagic   = 0x54445332 // "TDS2"
	checkpointVersion = 3
	// maxMetaBytes bounds the meta block on both sides: a save refuses a
	// larger payload, so every written generation is readable.
	maxMetaBytes = 1 << 16
	// maxStateEntries bounds the state block so a corrupted count cannot
	// drive allocation; matches the graph deserialiser's own sanity cap.
	maxStateEntries = 1 << 33
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
// v3 with an empty meta block.
func (s *Session) Save(w io.Writer) error { return s.save(w, nil) }

// save writes the checkpoint with meta in-band. Every block is buffered
// first so its length and CRC32 can be written ahead of the payload —
// the loader verifies integrity before interpreting a single payload
// byte.
func (s *Session) save(w io.Writer, meta []byte) error {
	if len(meta) > maxMetaBytes {
		return fmt.Errorf("tdgraph: checkpoint meta is %d bytes, limit %d", len(meta), maxMetaBytes)
	}
	var gbuf bytes.Buffer
	if err := s.eng.snapshot().WriteBinary(&gbuf); err != nil {
		return err
	}
	state := s.eng.states()
	sbuf := make([]byte, 8+8*len(state))
	binary.LittleEndian.PutUint64(sbuf[:8], uint64(len(state)))
	for i, v := range state {
		binary.LittleEndian.PutUint64(sbuf[8+8*i:], math.Float64bits(v))
	}

	bw := bufio.NewWriter(w)
	var scratch [8]byte
	binary.LittleEndian.PutUint32(scratch[:4], checkpointMagic)
	binary.LittleEndian.PutUint32(scratch[4:8], checkpointVersion)
	if _, err := bw.Write(scratch[:8]); err != nil {
		return err
	}
	for _, payload := range [][]byte{meta, gbuf.Bytes(), sbuf} {
		binary.LittleEndian.PutUint64(scratch[:8], uint64(len(payload)))
		if _, err := bw.Write(scratch[:8]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(scratch[:4], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(scratch[:4]); err != nil {
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// fsyncDir makes directory-entry changes (renames, creates, removes)
// in dir durable: POSIX only orders file contents, not the entries
// pointing at them, so an atomic-rename save must fsync the parent
// directory or a crash right after the rename can forget the rename
// itself. A test hook so the failure path is exercisable.
var fsyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// SaveFile checkpoints the session to path atomically: the bytes are
// written to a temp file in the same directory, synced to stable storage,
// renamed over path, and the parent directory is fsynced so the rename
// survives a crash — path always holds either the old complete
// checkpoint or the new one, even across power loss.
func (s *Session) SaveFile(path string) error {
	return saveFileAtomic(path, s.Save)
}

// saveFileAtomic writes whatever `write` produces to path with the full
// durability dance: temp file in the same directory, fsync, rename,
// directory fsync.
func saveFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := fsyncDir(dir); err != nil {
		return fmt.Errorf("tdgraph: syncing checkpoint directory %s: %w", dir, err)
	}
	return nil
}

// readBlock reads one length+CRC+payload block, verifying the checksum
// before returning the payload.
func readBlock(stage string, r io.Reader, maxLen uint64) ([]byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, ckptErr(stage, err)
	}
	plen := binary.LittleEndian.Uint64(hdr[:8])
	wantCRC := binary.LittleEndian.Uint32(hdr[8:12])
	if plen > maxLen {
		return nil, ckptCorrupt(stage, "implausible block length %d", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, ckptErr(stage, err)
	}
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
	snap, err := graph.ReadBinary(bytes.NewReader(gpayload))
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
	if opt.Cores <= 0 {
		opt.Cores = 8
	}
	if opt.Engine == EngineNativeParallel && opt.Simulate {
		return nil, nil, fmt.Errorf("tdgraph: the native parallel engine cannot be simulated")
	}
	eng, err := newBackend(a, snap.NumVertices, snap.EdgeList(), state, opt)
	if err != nil {
		return nil, nil, err
	}
	s := &Session{opt: opt, a: a, eng: eng}
	s.initRobustness()
	return s, meta, nil
}

// LoadSessionFile restores a checkpoint from path.
func LoadSessionFile(a Algorithm, path string, opt SessionOptions) (*Session, error) {
	s, _, err := loadSessionFile(a, path, opt)
	return s, err
}

func loadSessionFile(a Algorithm, path string, opt SessionOptions) (*Session, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return loadSession(a, f, opt)
}

// ApplySnapshot diffs the supplied full snapshot against the session's
// current graph and applies the difference as one incremental batch — the
// bridge for feeds that deliver periodic full snapshots instead of update
// streams.
func (s *Session) ApplySnapshot(next *Snapshot) (ApplyResult, error) {
	return s.ApplyBatch(graph.Diff(s.eng.snapshot(), next))
}
