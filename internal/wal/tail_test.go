package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/tdgraph/tdgraph/internal/graph"
)

func tailBatch(seq uint64) []graph.Update {
	return []graph.Update{{Edge: graph.Edge{Src: uint32(seq), Dst: uint32(seq) + 1, Weight: float32(seq) * 0.5}}}
}

func tailLog(t *testing.T, dir string, segBytes int64) *Log {
	t.Helper()
	l, _, err := Open(Options{Dir: dir, SegmentBytes: segBytes, Sync: SyncEachBatch})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

// drain pulls records until ErrCaughtUp, checking contiguity from want.
func drain(t *testing.T, tl *Tailer, want uint64) uint64 {
	t.Helper()
	for {
		seq, payload, err := tl.Next()
		if errors.Is(err, ErrCaughtUp) {
			return want
		}
		if err != nil {
			t.Fatalf("Next at seq %d: %v", want, err)
		}
		if seq != want {
			t.Fatalf("Next returned seq %d, want %d", seq, want)
		}
		batch, err := DecodeBatch(payload)
		if err != nil {
			t.Fatalf("DecodeBatch seq %d: %v", seq, err)
		}
		if len(batch) != 1 || batch[0].Edge.Src != uint32(seq) {
			t.Fatalf("seq %d decoded to wrong batch: %+v", seq, batch)
		}
		want++
	}
}

// TestTailerFollowsLiveLog: records appended after the tailer caught up
// are picked up by later Next calls, across segment rotation.
func TestTailerFollowsLiveLog(t *testing.T) {
	dir := t.TempDir()
	l := tailLog(t, dir, 128) // tiny segments force rotation
	defer l.Close()

	tl := NewTailer(Options{Dir: dir}, 0)
	defer tl.Close()

	if _, _, err := tl.Next(); !errors.Is(err, ErrCaughtUp) {
		t.Fatalf("empty log: want ErrCaughtUp, got %v", err)
	}

	next := uint64(1)
	for seq := uint64(1); seq <= 20; seq++ {
		if err := l.Append(seq, tailBatch(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
		if seq%3 == 0 {
			next = drain(t, tl, next)
		}
	}
	next = drain(t, tl, next)
	if next != 21 {
		t.Fatalf("tailer produced through seq %d, want 20", next-1)
	}

	segs, err := listSegments(l.fs, l.opt.Dir)
	if err != nil {
		t.Fatalf("segments: %v", err)
	}
	if len(segs) < 2 {
		t.Fatalf("test needs rotation; got %d segment(s)", len(segs))
	}
}

// TestTailerFromMidLog: a tailer started at seq k skips everything
// before it, including whole segments.
func TestTailerFromMidLog(t *testing.T) {
	dir := t.TempDir()
	l := tailLog(t, dir, 128)
	defer l.Close()
	for seq := uint64(1); seq <= 12; seq++ {
		if err := l.Append(seq, tailBatch(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}

	tl := NewTailer(Options{Dir: dir}, 7)
	defer tl.Close()
	if got := drain(t, tl, 7); got != 13 {
		t.Fatalf("drained through %d, want 12", got-1)
	}
}

// TestTailerSurvivesReopen: Close and resume keeps the position.
func TestTailerSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := tailLog(t, dir, 128)
	defer l.Close()
	for seq := uint64(1); seq <= 9; seq++ {
		if err := l.Append(seq, tailBatch(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}

	tl := NewTailer(Options{Dir: dir}, 0)
	for i := 0; i < 4; i++ {
		if seq, _, err := tl.Next(); err != nil || seq != uint64(i+1) {
			t.Fatalf("Next %d: seq=%d err=%v", i, seq, err)
		}
	}
	tl.Close()
	if got := drain(t, tl, 5); got != 10 {
		t.Fatalf("resumed drain reached %d, want 9", got-1)
	}
}

// TestTailerCompacted: a tailer asked for a sequence retention already
// dropped fails with ErrCompacted, not silent skipping.
func TestTailerCompacted(t *testing.T) {
	dir := t.TempDir()
	l := tailLog(t, dir, 128)
	defer l.Close()
	for seq := uint64(1); seq <= 12; seq++ {
		if err := l.Append(seq, tailBatch(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	segs, err := listSegments(l.fs, l.opt.Dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d (err %v)", len(segs), err)
	}
	// Drop everything before the second-to-last segment.
	keepFrom := segs[len(segs)-2].base
	if err := l.TruncateThrough(keepFrom - 1); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}

	tl := NewTailer(Options{Dir: dir}, 1)
	defer tl.Close()
	if _, _, err := tl.Next(); !errors.Is(err, ErrCompacted) {
		t.Fatalf("want ErrCompacted, got %v", err)
	}

	// From the oldest retained sequence it works fine.
	tl2 := NewTailer(Options{Dir: dir}, keepFrom)
	defer tl2.Close()
	if got := drain(t, tl2, keepFrom); got != 13 {
		t.Fatalf("drained through %d, want 12", got-1)
	}
}

// TestTailerSealedCorruption: damage in a segment that has a successor
// is corruption, not an in-flight append.
func TestTailerSealedCorruption(t *testing.T) {
	dir := t.TempDir()
	l := tailLog(t, dir, 128)
	for seq := uint64(1); seq <= 12; seq++ {
		if err := l.Append(seq, tailBatch(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	l.Close()
	segs := segNames(t, dir)
	if len(segs) < 2 {
		t.Fatalf("need rotation, got %d segment(s)", len(segs))
	}
	// Flip a byte past the header in the first (sealed) segment.
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[segHeaderSize+recHeaderSize] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	tl := NewTailer(Options{Dir: dir}, 1)
	defer tl.Close()
	var lastErr error
	for {
		_, _, err := tl.Next()
		if err != nil {
			lastErr = err
			break
		}
	}
	var le *LogError
	if !errors.As(lastErr, &le) || !errors.Is(lastErr, ErrCorrupt) {
		t.Fatalf("want *LogError wrapping ErrCorrupt, got %v", lastErr)
	}
}

// TestTailerTornLiveTail: a half-written record at the end of the last
// segment reads as ErrCaughtUp, and the whole record appears once the
// rest lands.
func TestTailerTornLiveTail(t *testing.T) {
	dir := t.TempDir()
	l := tailLog(t, dir, 1<<20)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(seq, tailBatch(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	l.Close()
	segs := segNames(t, dir)
	path := filepath.Join(dir, segs[len(segs)-1])
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	// Chop the final record in half — an append in flight.
	recLen := recHeaderSize + 4 + updateBytes
	torn := full[:len(full)-recLen/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatalf("write torn: %v", err)
	}

	tl := NewTailer(Options{Dir: dir}, 1)
	defer tl.Close()
	if got := drain(t, tl, 1); got != 3 {
		t.Fatalf("torn tail: drained through %d, want 2", got-1)
	}
	// The "rest of the write" lands; the record must now appear.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := drain(t, tl, 3); got != 4 {
		t.Fatalf("after landing: drained through %d, want 3", got-1)
	}
}

func segNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	return names
}

// drainTo pulls exactly the records [from, through], checking
// contiguity — unlike drain it fails on ErrCaughtUp, so it proves the
// records are actually there.
func drainTo(t *testing.T, tl *Tailer, from, through uint64) {
	t.Helper()
	for want := from; want <= through; want++ {
		seq, _, err := tl.Next()
		if err != nil {
			t.Fatalf("Next at seq %d: %v", want, err)
		}
		if seq != want {
			t.Fatalf("Next returned seq %d, want %d", seq, want)
		}
	}
}

// TestTailerCompactedMidStream: retention advancing *under a live
// tailer* — the replication-aware compaction case, where the primary
// deletes shipped history while follower catch-up streams are parked
// on it. A parked cursor whose records survive resumes exactly where
// it was; one whose segment was deleted fails loudly with ErrCompacted
// (the caller reseeds), never silently skipping records.
func TestTailerCompactedMidStream(t *testing.T) {
	// Each sub-test gets a fresh 12-record log over >=3 tiny segments.
	build := func(t *testing.T) (string, *Log, []segInfo) {
		t.Helper()
		dir := t.TempDir()
		l := tailLog(t, dir, 128)
		t.Cleanup(func() { l.Close() })
		for seq := uint64(1); seq <= 12; seq++ {
			if err := l.Append(seq, tailBatch(seq)); err != nil {
				t.Fatalf("Append %d: %v", seq, err)
			}
		}
		segs, err := listSegments(l.fs, l.opt.Dir)
		if err != nil || len(segs) < 3 {
			t.Fatalf("need >=3 segments, got %d (err %v)", len(segs), err)
		}
		if segs[1].base <= 3 {
			t.Fatalf("first segment too small for mid-segment parking (next base %d)", segs[1].base)
		}
		return dir, l, segs
	}

	t.Run("retention behind the cursor resumes", func(t *testing.T) {
		dir, l, segs := build(t)
		tl := NewTailer(Options{Dir: dir}, 1)
		defer tl.Close()
		// Park mid-way into the second segment, then delete the first.
		mid := segs[1].base + 1
		drainTo(t, tl, 1, mid)
		tl.Close()
		if err := l.TruncateThrough(segs[1].base - 1); err != nil {
			t.Fatalf("TruncateThrough: %v", err)
		}
		// The log keeps growing while the tailer is parked.
		for seq := uint64(13); seq <= 15; seq++ {
			if err := l.Append(seq, tailBatch(seq)); err != nil {
				t.Fatalf("Append %d: %v", seq, err)
			}
		}
		drainTo(t, tl, mid+1, 15)
		if _, _, err := tl.Next(); !errors.Is(err, ErrCaughtUp) {
			t.Fatalf("after resume: want ErrCaughtUp, got %v", err)
		}
	})

	t.Run("cursor at removed segment boundary resumes", func(t *testing.T) {
		dir, l, segs := build(t)
		tl := NewTailer(Options{Dir: dir}, 1)
		defer tl.Close()
		// Consume the first segment exactly, park, and delete it: the
		// cursor sits on the next segment's base and must re-resolve.
		drainTo(t, tl, 1, segs[1].base-1)
		tl.Close()
		if err := l.TruncateThrough(segs[1].base - 1); err != nil {
			t.Fatalf("TruncateThrough: %v", err)
		}
		drainTo(t, tl, segs[1].base, 12)
	})

	t.Run("cursor inside removed segment fails loudly", func(t *testing.T) {
		dir, l, segs := build(t)
		tl := NewTailer(Options{Dir: dir}, 1)
		defer tl.Close()
		// Park partway into the first segment, then delete through the
		// second: records the cursor still needed are gone.
		drainTo(t, tl, 1, segs[1].base-2)
		tl.Close()
		if err := l.TruncateThrough(segs[2].base - 1); err != nil {
			t.Fatalf("TruncateThrough: %v", err)
		}
		if _, _, err := tl.Next(); !errors.Is(err, ErrCompacted) {
			t.Fatalf("want ErrCompacted, got %v", err)
		}
		// A fresh tailer from the oldest retained record still works: the
		// log is healthy, only this cursor's history is gone.
		tl2 := NewTailer(Options{Dir: dir}, segs[2].base)
		defer tl2.Close()
		drainTo(t, tl2, segs[2].base, 12)
	})
}
