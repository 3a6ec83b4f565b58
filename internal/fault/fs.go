package fault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"github.com/tdgraph/tdgraph/internal/wal"
)

// Op names one filesystem operation, as an FS hook sees it.
type Op int

// The operations of wal.FS, wal.FreeSpacer and the wal.File that Create
// returns. A hook sees Rename with its new path.
const (
	OpCreate Op = iota
	OpOpen
	OpRemove
	OpRename
	OpTruncate
	OpList
	OpSyncDir
	OpFreeSpace
	OpWrite
	OpSync
	OpClose
)

// CrashSignal is the panic value FS throws at an armed crash — the
// in-process stand-in for kill -9. The chaos harness recovers it and
// then runs real recovery against what "survived".
type CrashSignal struct{ Path string }

func (c CrashSignal) String() string { return "fault: simulated crash during write to " + c.Path }

// disk is the real filesystem every FS sits on.
var disk wal.FS = wal.OSFS{}

// FS is the fault filesystem: the real filesystem behind the wal.FS
// seam, tracking per file the bytes written and the bytes its last
// successful Sync covered, with these faults on request:
//
//   - one byte fuse across every file the FS creates — segments,
//     checkpoints and the term file of the member it serves — so a
//     fault lands at a byte of the member's write lifetime: ArmTear,
//     ArmFill and ArmCrash;
//   - a crash at a Sync, ArmCrashAtSync, and the page-cache loss that
//     follows a crash, LoseUnsynced;
//   - a volume of finite capacity: NoSpace, LowSpace and AddDiskSpace;
//   - anything else through the hook, which runs before every
//     operation, outside the FS's lock, and may count, block or fail
//     it: a hook error replaces the operation. A hook that fails
//     OpFreeSpace with errors.ErrUnsupported hides the free-space probe.
type FS struct {
	hook func(op Op, path string) error

	mu       sync.Mutex
	files    map[string]*file
	blow     blow  // what the byte fuse does; 0 while unarmed
	fuse     int64 // bytes left to write before it blows
	syncs    int   // Syncs left before a crash; <0 while unarmed
	crashed  bool
	capacity int64 // free bytes on the modelled volume
	modelled bool  // a capacity is modelled: FreeSpace reports it
	enforced bool  // and a write that does not fit fails
}

type blow int

const (
	tear blow = iota + 1
	fill
	crash
)

// NewFS returns an FS with no fault armed that calls hook, if not nil,
// before every operation.
func NewFS(hook func(op Op, path string) error) *FS {
	return &FS{hook: hook, files: make(map[string]*file), syncs: -1}
}

// ArmTear tears the write crossing the next n bytes: the prefix up to
// the fuse reaches the file, then the write fails, and so does every
// later one.
func (f *FS) ArmTear(n int64) { f.arm(tear, n) }

// ArmFill fills the disk after the next n bytes: the write crossing the
// fuse persists nothing and fails, and so does every later one.
func (f *FS) ArmFill(n int64) { f.arm(fill, n) }

// ArmCrash kills the process inside the write crossing the next n
// bytes: the prefix up to the fuse reaches the file, then the write
// panics with CrashSignal and never returns. ArmCrash(0) crashes on the
// very next write.
func (f *FS) ArmCrash(n int64) { f.arm(crash, n) }

func (f *FS) arm(b blow, n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blow, f.fuse, f.crashed = b, n, false
}

// ArmCrashAtSync lets n more Syncs succeed and kills the process in the
// next one before it reaches the disk, so everything written since the
// previous barrier is still dirty pages that LoseUnsynced may drop.
func (f *FS) ArmCrashAtSync(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncs, f.crashed = n, false
}

// Crashed reports whether an armed crash has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// NoSpace models a volume with capacity free bytes: writes consume it,
// removing or replacing a file credits its bytes back (so compaction
// genuinely frees space), and a write that does not fit persists
// nothing and fails with an error wrapping both ErrInjected and
// wal.ErrNoSpace. Retention, Remove or AddDiskSpace can free room.
func (f *FS) NoSpace(capacity int64) { f.model(capacity, true) }

// LowSpace models the same volume for the free-space probe alone:
// FreeSpace reports what is left so pressure ladders trip, but writes
// never fail.
func (f *FS) LowSpace(capacity int64) { f.model(capacity, false) }

func (f *FS) model(capacity int64, enforced bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.capacity, f.modelled, f.enforced = capacity, true, enforced
}

// AddDiskSpace grows, or with a negative delta shrinks, the modelled
// volume: an operator freeing (or consuming) space.
func (f *FS) AddDiskSpace(delta int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.capacity = max(0, f.capacity+delta)
}

// LoseUnsynced simulates the page cache dying with the process: for
// every open file, a seeded random prefix of the bytes written since its
// last successful Sync survives and the rest is truncated away. Synced
// bytes always survive. Call after the CrashSignal panic has been
// recovered; the open handles are closed as a side effect.
func (f *FS) LoseUnsynced(rng *rand.Rand) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for path, h := range f.files {
		if h.closed {
			continue
		}
		h.File.Close()
		h.closed = true
		if h.written > h.synced {
			if err := disk.Truncate(path, h.synced+rng.Int63n(h.written-h.synced+1)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *FS) before(op Op, path string) error {
	if f.hook == nil {
		return nil
	}
	return f.hook(op, path)
}

// drop forgets the file at path, crediting its bytes back to the
// modelled volume. The caller holds f.mu.
func (f *FS) drop(path string) {
	if h, ok := f.files[path]; ok {
		if f.modelled {
			f.capacity += h.written
		}
		delete(f.files, path)
	}
}

func (f *FS) Create(path string) (wal.File, error) {
	if err := f.before(OpCreate, path); err != nil {
		return nil, err
	}
	wf, err := disk.Create(path)
	if err != nil {
		return nil, err
	}
	h := &file{File: wf, fs: f, path: path}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drop(path) // the create truncated what was there
	f.files[path] = h
	return h, nil
}

func (f *FS) Open(path string) (io.ReadCloser, error) {
	if err := f.before(OpOpen, path); err != nil {
		return nil, err
	}
	return disk.Open(path)
}

func (f *FS) Remove(path string) error {
	if err := f.before(OpRemove, path); err != nil {
		return err
	}
	if err := disk.Remove(path); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drop(path)
	return nil
}

// Rename moves a file's tracked bytes with it; the file it replaces is
// freed.
func (f *FS) Rename(oldpath, newpath string) error {
	if err := f.before(OpRename, newpath); err != nil {
		return err
	}
	if err := disk.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drop(newpath)
	if h, ok := f.files[oldpath]; ok {
		f.files[newpath] = h
		delete(f.files, oldpath)
	}
	return nil
}

func (f *FS) Truncate(path string, size int64) error {
	if err := f.before(OpTruncate, path); err != nil {
		return err
	}
	return disk.Truncate(path, size)
}

func (f *FS) List(dir string) ([]string, error) {
	if err := f.before(OpList, dir); err != nil {
		return nil, err
	}
	return disk.List(dir)
}

func (f *FS) SyncDir(dir string) error {
	if err := f.before(OpSyncDir, dir); err != nil {
		return err
	}
	return disk.SyncDir(dir)
}

// FreeSpace reports the modelled volume's free bytes, or the real
// volume's when no capacity is modelled.
func (f *FS) FreeSpace(dir string) (uint64, error) {
	if err := f.before(OpFreeSpace, dir); err != nil {
		return 0, err
	}
	f.mu.Lock()
	free, modelled := f.capacity, f.modelled
	f.mu.Unlock()
	if modelled {
		return uint64(free), nil
	}
	if fsp, ok := disk.(wal.FreeSpacer); ok {
		return fsp.FreeSpace(dir)
	}
	return 0, errors.ErrUnsupported
}

type file struct {
	wal.File
	fs      *FS
	path    string
	written int64 // bytes written through this handle
	synced  int64 // bytes its last successful Sync covered
	closed  bool
}

func (h *file) Write(p []byte) (int, error) {
	f := h.fs
	if err := f.before(OpWrite, h.path); err != nil {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.enforced && int64(len(p)) > f.capacity {
		return 0, fmt.Errorf("fault: write needs %d bytes, %d free: %w: %w",
			len(p), f.capacity, ErrInjected, wal.ErrNoSpace)
	}
	blown := f.blow != 0 && int64(len(p)) > f.fuse
	if blown {
		p, f.fuse = p[:f.fuse], 0
		if f.blow == fill {
			p = nil
		}
	} else if f.blow != 0 {
		f.fuse -= int64(len(p))
	}
	//tdgraph:allow lockhold the fuse and the modelled volume are charged with the write they admit; a local file write waits only for the disk, with no peer behind it
	n, err := h.File.Write(p)
	h.written += int64(n)
	if f.modelled {
		f.capacity = max(0, f.capacity-int64(n))
	}
	switch {
	case !blown:
		return n, err
	case f.blow == crash:
		f.blow, f.syncs, f.crashed = 0, -1, true
		panic(CrashSignal{Path: h.path})
	case f.blow == fill:
		return n, fmt.Errorf("fault: disk full: %w", ErrInjected)
	}
	return n, fmt.Errorf("fault: torn write: %w", ErrInjected)
}

func (h *file) Sync() error {
	f := h.fs
	if err := f.before(OpSync, h.path); err != nil {
		return err
	}
	f.mu.Lock()
	if f.syncs == 0 {
		// Die before the barrier reaches the disk: the caller's
		// unsynced bytes stay unsynced.
		f.blow, f.syncs, f.crashed = 0, -1, true
		f.mu.Unlock()
		panic(CrashSignal{Path: h.path})
	}
	if f.syncs > 0 {
		f.syncs--
	}
	f.mu.Unlock()
	if err := h.File.Sync(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	h.synced = h.written
	return nil
}

func (h *file) Close() error {
	if err := h.fs.before(OpClose, h.path); err != nil {
		return err
	}
	h.fs.mu.Lock()
	h.closed = true
	h.fs.mu.Unlock()
	return h.File.Close()
}
