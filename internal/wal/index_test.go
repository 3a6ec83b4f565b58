package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// indexMatchesDir fails the test unless the log's segment index is
// exactly what a fresh directory scan finds, and FirstSeq names its
// oldest entry.
func indexMatchesDir(t *testing.T, l *Log, when string) {
	t.Helper()
	segs, err := listSegments(l.fs, l.opt.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(l.segs, segs) {
		t.Fatalf("%s: index %v, directory %v", when, l.segs, segs)
	}
	if len(segs) > 0 && l.FirstSeq() != segs[0].base {
		t.Fatalf("%s: FirstSeq %d, oldest segment starts at %d", when, l.FirstSeq(), segs[0].base)
	}
}

// failRemoveFS fails the Remove calls whose 1-based number is in fail.
type failRemoveFS struct {
	FS
	calls int
	fail  []int
}

func (f *failRemoveFS) Remove(path string) error {
	f.calls++
	if slices.Contains(f.fail, f.calls) {
		return errors.New("injected remove failure")
	}
	return f.FS.Remove(path)
}

// TestSegmentIndexMatchesDirectory: the index the log keeps in place of
// a directory listing equals a fresh scan after every operation that
// creates or removes a segment — an Open that removes a headerless
// final segment, rotations, a segment whose header write failed and its
// retry, retention whose removals fail part-way, and Reset — and
// retention driven by it removes exactly the segments a scan would.
func TestSegmentIndexMatchesDirectory(t *testing.T) {
	dir := t.TempDir()
	l := appendN(t, dir, 3, Options{SegmentBytes: 1}) // one record per segment
	indexMatchesDir(t, l, "after rotations")
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, segName(4)), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}

	armed := false
	fs := &failRemoveFS{FS: tornFS{FS: OSFS{}, armed: &armed}}
	l, rec, err := Open(Options{Dir: dir, SegmentBytes: 1, FS: fs})
	if err != nil || rec.RemovedSegment != segName(4) {
		t.Fatalf("Open = %+v, %v; want the headerless segment removed", rec, err)
	}
	indexMatchesDir(t, l, "after Open removed a segment")

	armed = true // the new segment's header write fails, then its retry succeeds
	if err := l.Append(4, testBatch(4, 5)); err == nil {
		t.Fatal("Append with a failing header write succeeded")
	}
	indexMatchesDir(t, l, "after a failed segment header")
	for seq := uint64(4); seq <= 9; seq++ {
		if err := l.Append(seq, testBatch(int64(seq), 5)); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
		indexMatchesDir(t, l, "after an append")
	}

	// Segments 1..9 hold one record each. Through 6 removes 1..6; the
	// second removal fails, so 1 goes, the call stops, and 2..9 stay.
	fs.fail = []int{fs.calls + 2}
	if err := l.TruncateThrough(6); err == nil {
		t.Fatal("TruncateThrough with a failing Remove succeeded")
	}
	indexMatchesDir(t, l, "after a part-way retention failure")
	if n := l.Stats().Removed; n != 1 || l.FirstSeq() != 2 {
		t.Fatalf("Removed=%d FirstSeq=%d, want 1 and 2", n, l.FirstSeq())
	}
	if err := l.TruncateThrough(6); err != nil {
		t.Fatal(err)
	}
	indexMatchesDir(t, l, "after retention")
	if n := l.Stats().Removed; n != 6 || l.FirstSeq() != 7 {
		t.Fatalf("Removed=%d FirstSeq=%d, want 6 and 7", n, l.FirstSeq())
	}
	if err := l.TruncateThrough(100); err != nil {
		t.Fatal(err)
	}
	indexMatchesDir(t, l, "after retention past the end")
	if l.FirstSeq() != 9 {
		t.Fatalf("FirstSeq=%d, want 9: the newest segment always stays", l.FirstSeq())
	}

	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	indexMatchesDir(t, l, "after Reset")
	if len(l.segs) != 0 {
		t.Fatalf("index after Reset holds %v", l.segs)
	}
	if err := l.Append(20, testBatch(20, 5)); err != nil {
		t.Fatal(err)
	}
	indexMatchesDir(t, l, "after the first append past Reset")
	l.Close()
	if got := replaySeqs(t, dir, 0, Options{}); len(got) != 1 || got[0] != 20 {
		t.Fatalf("replay after Reset got %v, want [20]", got)
	}
}
