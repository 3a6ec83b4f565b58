package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the write handle the log needs from its filesystem: ordered
// writes, explicit durability, close. *os.File satisfies it.
type File interface {
	io.Writer
	io.Closer
	Sync() error
}

// FS abstracts every filesystem operation a member performs on its
// durable files — WAL segments, checkpoint generations, term state and
// reseed transfers — so the fault injector can interpose torn writes,
// fsync failures, full disks, and crash simulation (discarding bytes
// past the last fsync barrier). All paths are absolute or relative
// exactly as the caller passes them.
type FS interface {
	// Create truncates/creates path for writing.
	Create(path string) (File, error)
	// Open opens path for reading.
	Open(path string) (io.ReadCloser, error)
	// Remove deletes path.
	Remove(path string) error
	// Rename atomically replaces newpath with the file at oldpath.
	Rename(oldpath, newpath string) error
	// Truncate cuts path to size bytes — the tail repair primitive.
	Truncate(path string, size int64) error
	// List returns the base names of the regular files in dir, sorted.
	List(dir string) ([]string, error)
	// SyncDir fsyncs the directory itself so entry creates, removes and
	// renames survive a crash (POSIX does not order them otherwise).
	SyncDir(dir string) error
}

// FreeSpacer is the optional free-space probe on an FS. Implementations
// report how many bytes the volume holding dir can still absorb. The
// log discovers it by type assertion, so an FS without a meaningful
// notion of capacity (tests, wrappers) simply doesn't implement it and
// disk-pressure degradation stays disabled.
type FreeSpacer interface {
	FreeSpace(dir string) (uint64, error)
}

// OrOS returns fs, or the real filesystem when fs is nil: the one place
// a nil FS is given its meaning.
func OrOS(fs FS) FS {
	if fs == nil {
		return OSFS{}
	}
	return fs
}

// ReplaceFile durably replaces path with whatever write produces: the
// bytes go to the fixed temp file path+".tmp", which is synced, closed
// and renamed over path, and then the parent directory is synced so the
// rename itself survives a crash. At every instant path holds either
// its old complete contents or the new ones. A failure before the
// rename removes the temp file and leaves path as it was; a failed
// directory sync is returned too, since the replace is then not yet
// durable. Because the temp name is fixed, a replace killed part-way
// leaves at most that one file, which the next replace overwrites — so
// replaces of one path must not overlap.
func ReplaceFile(fs FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	dir := filepath.Dir(path)
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: syncing directory %s: %w", dir, err)
	}
	return nil
}

// ReadFile returns the whole contents of path, read through fs. A file
// that reports its size, as an *os.File does, is read into one buffer of
// that size, as os.ReadFile would: a shipped checkpoint is not regrown.
func ReadFile(fs FS, path string) ([]byte, error) {
	r, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var buf bytes.Buffer
	if f, ok := r.(interface{ Stat() (os.FileInfo, error) }); ok {
		if st, err := f.Stat(); err == nil {
			buf.Grow(int(st.Size()) + bytes.MinRead)
		}
	}
	_, err = buf.ReadFrom(r)
	return buf.Bytes(), err
}

// OSFS is the production FS: the real filesystem via package os. Files
// it creates are private to the owner (0600), the mode every durable
// file of a member — segment, checkpoint, term state — is written with.
type OSFS struct{}

func (OSFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
}

func (OSFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

func (OSFS) Remove(path string) error { return os.Remove(path) }

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
