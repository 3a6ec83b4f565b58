package tdgraph

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strconv"

	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// Checkpointer manages a rotating family of checkpoint generations at
// Path, Path+".1", Path+".2", ... (newest first), one self-describing
// file each. SaveWithMeta rotates the existing generations back one slot
// before writing the new checkpoint atomically; LoadWithMeta walks the
// generations newest-first and restores the first one that passes every
// integrity check, so a torn or bit-flipped newest checkpoint degrades
// to the previous good one instead of failing the restore. This is the
// recovery rung of the degradation ladder between "reject the batch" and
// "full recompute" (DESIGN.md).
type Checkpointer struct {
	// Path of the newest checkpoint generation.
	Path string
	// Keep is how many generations to retain, minimum 1 (default 2: the
	// newest plus one fallback).
	Keep int
	// FS is the filesystem every read, write, rename and directory sync
	// goes through — the member's one disk seam, shared with its WAL.
	// Nil means the real filesystem.
	FS wal.FS
}

// NewCheckpointer returns a Checkpointer with the default retention.
func NewCheckpointer(path string) *Checkpointer {
	return &Checkpointer{Path: path, Keep: 2}
}

func (c *Checkpointer) keep() int {
	if c.Keep < 1 {
		return 2
	}
	return c.Keep
}

// genPath names generation i. It does not format with fmt, whose
// printers come from a per-P pool: a save would allocate a printer
// whenever it resumed on another P after a blocking fsync.
func (c *Checkpointer) genPath(i int) string {
	if i == 0 {
		return c.Path
	}
	return c.Path + "." + strconv.Itoa(i)
}

// SaveWithMeta rotates the retained generations one slot back and writes
// the session, with meta in the file's own meta block, as the new newest
// generation. The write is wal.ReplaceFile's atomic replace (fixed temp
// file, fsync, rename, directory fsync) and rotation happens before it,
// so at every instant the newest complete generation on disk is
// recoverable — and, being one file, recoverable together with what it
// covers. Saves through one Path must not overlap.
func (c *Checkpointer) SaveWithMeta(s *Session, meta []byte) error {
	fsys := wal.OrOS(c.FS)
	for i := c.keep() - 1; i >= 1; i-- {
		// An empty source slot leaves the destination as it is.
		src, dst := c.genPath(i-1), c.genPath(i)
		if err := fsys.Rename(src, dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("tdgraph: rotating checkpoint %s -> %s: %w", src, dst, err)
		}
	}
	if err := wal.ReplaceFile(fsys, c.Path, func(w io.Writer) error { return s.save(w, meta) }); err != nil {
		return fmt.Errorf("tdgraph: saving checkpoint %s: %w", c.Path, err)
	}
	return nil
}

// RecoveryEvent records one checkpoint generation that was skipped
// during a load because it was missing or failed integrity checks.
type RecoveryEvent struct {
	Path string
	Err  error
}

// newest is the one generation walk: it offers each generation's path
// to try, newest first, until try accepts one, and returns the
// generations passed over on the way. When none is accepted the error
// is the newest generation's failure (the most informative one).
func (c *Checkpointer) newest(try func(path string) error) ([]RecoveryEvent, error) {
	var skipped []RecoveryEvent
	for i := 0; i < c.keep(); i++ {
		path := c.genPath(i)
		err := try(path)
		if err == nil {
			return skipped, nil
		}
		skipped = append(skipped, RecoveryEvent{Path: path, Err: err})
	}
	return skipped, fmt.Errorf("tdgraph: no usable checkpoint generation under %s: %w", c.Path, skipped[0].Err)
}

// LoadWithMeta restores the newest generation that passes every
// integrity check, with the meta payload it was saved with. Skipped
// generations are returned as RecoveryEvents; when the restored session
// did not come from the newest generation the recovery is also counted
// in the session's robustness stats.
func (c *Checkpointer) LoadWithMeta(a Algorithm, opt SessionOptions) (s *Session, meta []byte, skipped []RecoveryEvent, err error) {
	skipped, err = c.newest(func(path string) (err error) {
		s, meta, err = loadSessionFile(wal.OrOS(c.FS), a, path, opt)
		return err
	})
	if err == nil && len(skipped) > 0 {
		s.rob.Inc(stats.CtrCheckpointRecovered)
	}
	return s, meta, skipped, err
}

// Metas returns each retained generation's meta payload, newest first,
// reading only the file's header and meta block, with nil entries where
// the generation is missing or fails those checks. Retention decisions
// (how far the WAL may be truncated) key off the OLDEST retained
// generation, so a fallback restore never finds its replay tail already
// deleted.
func (c *Checkpointer) Metas() [][]byte {
	fsys := wal.OrOS(c.FS)
	out := make([][]byte, c.keep())
	for i := range out {
		if f, err := fsys.Open(c.genPath(i)); err == nil {
			out[i], _ = readCheckpointMeta(f) // nil on failure, by contract
			f.Close()
		}
	}
	return out
}

// NewestWithMeta returns the newest generation whose header and meta
// block validate, as raw bytes ready to ship to another replica, plus
// the meta payload parsed out of those same bytes. The graph and state
// blocks are not decoded here — the receiver runs the full load before
// installing, and a whole-file checksum travels with the transfer.
func (c *Checkpointer) NewestWithMeta() (data, meta []byte, err error) {
	_, err = c.newest(func(path string) (err error) {
		if data, err = wal.ReadFile(wal.OrOS(c.FS), path); err == nil {
			meta, err = readCheckpointMeta(bytes.NewReader(data))
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return data, meta, nil
}

// Install atomically adopts the already-written (and fsynced) file at
// tmpPath as the newest — and only — checkpoint generation: the
// receiving half of a snapshot transfer. Every older fallback
// generation is removed first, durably, because it describes a history
// the installed file replaces: restored over the WAL the caller has
// just reset it would serve silently diverged state. Then the file is
// renamed over the newest slot. A crash before the rename leaves the
// previous newest generation, complete; after it, the installed one —
// never a half-installed snapshot, and never a way back past it.
func (c *Checkpointer) Install(tmpPath string) error {
	fsys := wal.OrOS(c.FS)
	dir := filepath.Dir(c.Path)
	for i := 1; i < c.keep(); i++ {
		if err := fsys.Remove(c.genPath(i)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("tdgraph: clearing checkpoint generation %s: %w", c.genPath(i), err)
		}
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("tdgraph: syncing checkpoint directory %s: %w", dir, err)
	}
	if err := fsys.Rename(tmpPath, c.Path); err != nil {
		return fmt.Errorf("tdgraph: installing checkpoint %s: %w", c.Path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("tdgraph: syncing checkpoint directory %s: %w", dir, err)
	}
	return nil
}
