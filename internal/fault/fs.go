package fault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"github.com/tdgraph/tdgraph/internal/wal"
)

// This file is the WAL-level fault surface: an injector-driven wal.FS
// that schedules torn writes, fsync failures and a full disk on the
// write-ahead log's own filesystem seam, and CrashFS, a deterministic
// kill-simulation filesystem for the chaos suite (everything past the
// last fsync barrier may be lost, exactly like a power cut under a
// page cache).

// FS wraps base with the armed WAL fault classes. Budgets are global
// across all files the returned FS creates — segments, checkpoints and
// the term file of the member it serves — so a fault lands at a byte
// position in the member's write lifetime, not per file:
//
//   - DiskFull: after the armed number of bytes, every write fails with an
//     error wrapping ErrInjected and persists nothing further.
//   - WALTorn: the write crossing the armed byte offset persists only up
//     to the boundary, then fails — a torn record mid-write.
//   - FsyncErr: after the armed number of successful Syncs, Sync fails
//     with an error wrapping ErrInjected.
//   - NoSpace / LowSpace: the FS models a volume of the armed size. Writes
//     consume capacity and Remove credits a file's bytes back. With
//     NoSpace armed, a write that does not fit fails wrapping both
//     ErrInjected and wal.ErrNoSpace (persisting nothing); with only
//     LowSpace armed, writes always succeed but the wal.FreeSpacer
//     probe reports the shrinking capacity so pressure ladders trip.
//
// Reads, listing pass through untouched.
func (in *Injector) FS(base wal.FS) wal.FS {
	f := &faultFS{FS: base}
	if limit, ok := in.armed[DiskFull]; ok {
		f.writeBudget, f.haveBudget, f.full = int64(limit), true, true
	}
	if limit, ok := in.armed[WALTorn]; ok {
		f.writeBudget, f.haveBudget = int64(limit), true
	}
	if n, ok := in.armed[FsyncErr]; ok {
		f.syncBudget, f.haveSync = int(n), true
	}
	if capBytes, ok := in.armed[NoSpace]; ok {
		f.capacity, f.haveCap, f.enospc = int64(capBytes), true, true
		f.fileBytes = make(map[string]int64)
	}
	if capBytes, ok := in.armed[LowSpace]; ok {
		if !f.haveCap {
			f.capacity, f.haveCap = int64(capBytes), true
			f.fileBytes = make(map[string]int64)
		}
	}
	return f
}

// DiskSpacer adjusts a fault FS's simulated volume capacity at runtime —
// the chaos suites' "operator frees (or consumes) space" lever. The FS
// returned by Injector.FS implements it when NoSpace or LowSpace is
// armed.
type DiskSpacer interface {
	AddDiskSpace(delta int64)
}

type faultFS struct {
	wal.FS

	mu          sync.Mutex
	writeBudget int64
	haveBudget  bool
	full        bool // DiskFull (persist nothing at the fault) vs WALTorn (tear)
	syncBudget  int
	haveSync    bool

	capacity  int64 // simulated free bytes (NoSpace / LowSpace)
	haveCap   bool
	enospc    bool // NoSpace armed: enforce the capacity, not just report it
	fileBytes map[string]int64
}

// FreeSpace reports the simulated remaining capacity when NoSpace or
// LowSpace is armed, and otherwise defers to the base FS's probe (or
// reports the probe unsupported).
func (f *faultFS) FreeSpace(dir string) (uint64, error) {
	f.mu.Lock()
	if f.haveCap {
		free := f.capacity
		f.mu.Unlock()
		return uint64(free), nil
	}
	f.mu.Unlock()
	if fsp, ok := f.FS.(wal.FreeSpacer); ok {
		return fsp.FreeSpace(dir)
	}
	return 0, errors.ErrUnsupported
}

// AddDiskSpace grows (or with a negative delta shrinks) the simulated
// capacity. No-op unless NoSpace or LowSpace is armed.
func (f *faultFS) AddDiskSpace(delta int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.haveCap {
		return
	}
	f.capacity += delta
	if f.capacity < 0 {
		f.capacity = 0
	}
}

// charge books n persisted bytes against the simulated volume. Caller
// holds f.mu.
func (f *faultFS) charge(path string, n int) {
	if !f.haveCap || n <= 0 {
		return
	}
	f.capacity -= int64(n)
	if f.capacity < 0 {
		f.capacity = 0
	}
	f.fileBytes[path] += int64(n)
}

func (f *faultFS) Remove(path string) error {
	err := f.FS.Remove(path)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.haveCap {
		f.capacity += f.fileBytes[path]
		delete(f.fileBytes, path)
	}
	return nil
}

// Rename moves a file's bytes on the modelled volume with the file, so
// a later Remove of the new name credits them back.
func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.haveCap {
		f.capacity += f.fileBytes[newpath] // the replaced file's bytes are freed
		f.fileBytes[newpath] = f.fileBytes[oldpath]
		delete(f.fileBytes, oldpath)
	}
	return nil
}

func (f *faultFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, path: path}, nil
}

type faultFile struct {
	wal.File
	fs   *faultFS
	path string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.haveCap && f.enospc && int64(len(p)) > f.capacity {
		return 0, fmt.Errorf("fault: write needs %d bytes, %d free: %w: %w",
			len(p), f.capacity, ErrInjected, wal.ErrNoSpace)
	}
	if !f.haveBudget {
		//tdgraph:allow lockhold the injected budget is charged with the write it admits; a local file write waits only for the disk, with no peer behind it
		n, err := ff.File.Write(p)
		f.charge(ff.path, n)
		return n, err
	}
	if int64(len(p)) <= f.writeBudget {
		//tdgraph:allow lockhold the injected budget is charged with the write it admits; a local file write waits only for the disk, with no peer behind it
		n, err := ff.File.Write(p)
		f.writeBudget -= int64(n)
		f.charge(ff.path, n)
		return n, err
	}
	n := 0
	if !f.full && f.writeBudget > 0 {
		// Torn write: the prefix up to the boundary reaches the file.
		//tdgraph:allow lockhold the injected budget is charged with the write it admits; a local file write waits only for the disk, with no peer behind it
		n, _ = ff.File.Write(p[:f.writeBudget])
		f.charge(ff.path, n)
	}
	f.writeBudget = 0
	if f.full {
		return n, fmt.Errorf("fault: disk full: %w", ErrInjected)
	}
	return n, fmt.Errorf("fault: torn write: %w", ErrInjected)
}

func (ff *faultFile) Sync() error {
	f := ff.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.haveSync {
		if f.syncBudget <= 0 {
			return fmt.Errorf("fault: fsync failed: %w", ErrInjected)
		}
		f.syncBudget--
	}
	return ff.File.Sync()
}

// CrashSignal is the panic value CrashFS throws at the armed crash
// point — the in-process stand-in for kill -9. The chaos harness
// recovers it and then runs real recovery against what "survived".
type CrashSignal struct{ Path string }

func (c CrashSignal) String() string { return "fault: simulated crash during write to " + c.Path }

// CrashFS simulates sudden process death with page-cache loss on top
// of a real directory. Writes pass through to the real files while the
// FS tracks, per file, the byte offset covered by the last successful
// Sync. Arm a crash at a global byte offset; the write that crosses it
// persists up to the boundary and then panics with CrashSignal —
// control never returns to the writer, exactly like a kill. Afterwards
// LoseUnsynced drops a seeded random amount of each file's unsynced
// tail, modelling dirty pages that never reached the platter. Bytes
// before a file's last fsync are never touched: the fsync barrier is
// the guarantee under test.
//
// The zero value is not usable; NewCrashFS wraps the real filesystem.
// CrashFS is single-goroutine like the log that drives it.
type CrashFS struct {
	base      wal.FS
	mu        sync.Mutex
	files     map[string]*crashFile
	armed     bool
	fuse      int64 // bytes of write budget left before the crash
	syncArmed bool
	syncFuse  int // successful Syncs left before the crash
	crashed   bool
}

// NewCrashFS returns a CrashFS over the real filesystem.
func NewCrashFS() *CrashFS {
	return &CrashFS{base: wal.OSFS{}, files: make(map[string]*crashFile)}
}

// ArmCrash schedules the crash after the next afterBytes written bytes
// (across all files). afterBytes 0 crashes on the very next write.
func (c *CrashFS) ArmCrash(afterBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed, c.fuse, c.crashed = true, afterBytes, false
}

// ArmCrashAtSync schedules the crash on a Sync call instead: the first
// afterSyncs Syncs succeed, then the next one dies *before* reaching
// the disk — the process is killed mid-fsync, so everything written
// since the previous barrier is still just dirty pages and may be lost
// by LoseUnsynced. afterSyncs 0 crashes on the very next Sync.
func (c *CrashFS) ArmCrashAtSync(afterSyncs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncArmed, c.syncFuse, c.crashed = true, afterSyncs, false
}

// Crashed reports whether the armed crash has fired.
func (c *CrashFS) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// LoseUnsynced simulates the page cache dying with the process: for
// every tracked file, a seeded random prefix of the bytes written
// since its last successful Sync survives and the rest is truncated
// away. Synced bytes always survive. Call after the CrashSignal panic
// has been recovered; the handles are closed as a side effect.
func (c *CrashFS) LoseUnsynced(rng *rand.Rand) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for path, f := range c.files {
		f.f.Close()
		if f.written > f.synced {
			keep := f.synced + rng.Int63n(f.written-f.synced+1)
			if err := c.base.Truncate(path, keep); err != nil {
				return err
			}
		}
		delete(c.files, path)
	}
	return nil
}

type crashFile struct {
	fs      *CrashFS
	path    string
	f       wal.File
	written int64 // bytes physically written so far
	synced  int64 // bytes covered by the last successful Sync
}

func (c *CrashFS) Create(path string) (wal.File, error) {
	f, err := c.base.Create(path)
	if err != nil {
		return nil, err
	}
	cf := &crashFile{fs: c, path: path, f: f}
	c.mu.Lock()
	c.files[path] = cf
	c.mu.Unlock()
	return cf, nil
}

func (cf *crashFile) Write(p []byte) (int, error) {
	c := cf.fs
	c.mu.Lock()
	if c.armed && !c.crashed && int64(len(p)) > c.fuse {
		// Persist up to the boundary, then die mid-write.
		//tdgraph:allow lockhold the crash fuse burns with the write it tears; a local file write waits only for the disk, with no peer behind it
		n, _ := cf.f.Write(p[:c.fuse])
		cf.written += int64(n)
		c.crashed, c.armed = true, false
		c.mu.Unlock()
		panic(CrashSignal{Path: cf.path})
	}
	if c.armed {
		c.fuse -= int64(len(p))
	}
	c.mu.Unlock()
	n, err := cf.f.Write(p)
	cf.written += int64(n)
	return n, err
}

func (cf *crashFile) Sync() error {
	c := cf.fs
	c.mu.Lock()
	if c.syncArmed && !c.crashed {
		if c.syncFuse <= 0 {
			// Die before the barrier reaches the disk: the caller's
			// unsynced bytes stay unsynced.
			c.crashed, c.syncArmed = true, false
			c.mu.Unlock()
			panic(CrashSignal{Path: cf.path})
		}
		c.syncFuse--
	}
	c.mu.Unlock()
	if err := cf.f.Sync(); err != nil {
		return err
	}
	cf.synced = cf.written
	return nil
}

func (cf *crashFile) Close() error {
	c := cf.fs
	c.mu.Lock()
	delete(c.files, cf.path)
	c.mu.Unlock()
	return cf.f.Close()
}

func (c *CrashFS) Open(path string) (io.ReadCloser, error) { return c.base.Open(path) }

func (c *CrashFS) Remove(path string) error {
	c.mu.Lock()
	delete(c.files, path)
	c.mu.Unlock()
	return c.base.Remove(path)
}

func (c *CrashFS) Rename(oldpath, newpath string) error { return c.base.Rename(oldpath, newpath) }

func (c *CrashFS) Truncate(path string, size int64) error { return c.base.Truncate(path, size) }

func (c *CrashFS) List(dir string) ([]string, error) { return c.base.List(dir) }

func (c *CrashFS) SyncDir(dir string) error { return c.base.SyncDir(dir) }
