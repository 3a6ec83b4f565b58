package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// countFS counts the Writes and Syncs that reach segment files.
type countFS struct {
	FS
	writes, syncs *int
}

func (f countFS) Create(path string) (File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f}, nil
}

type countFile struct {
	File
	fs countFS
}

func (f *countFile) Write(p []byte) (int, error) { *f.fs.writes++; return f.File.Write(p) }
func (f *countFile) Sync() error                 { *f.fs.syncs++; return f.File.Sync() }

// segmentFiles reads every segment in dir, by name.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := OSFS{}.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, n := range names {
		if _, ok := parseSegName(n); !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		files[n] = data
	}
	return files
}

func requireSameSegments(t *testing.T, what, gotDir, wantDir string) {
	t.Helper()
	got, want := segmentFiles(t, gotDir), segmentFiles(t, wantDir)
	if len(got) != len(want) {
		t.Fatalf("%s: %d segment files, the serial log has %d", what, len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Fatalf("%s: segment %s differs from the serial log's (%d vs %d bytes)", what, name, len(got[name]), len(data))
		}
	}
}

func groupPayloads(from, to uint64) [][]byte {
	var ps [][]byte
	for seq := from; seq <= to; seq++ {
		ps = append(ps, EncodeBatch(testBatch(int64(seq), 5)))
	}
	return ps
}

// TestWALGroupAppendMatchesSerial: AppendGroup of k payloads leaves the
// bytes k single appends leave — here with the group's last record the
// one that crosses the rotation threshold, so both logs seal the segment
// at the same place — while spending one Write and one policy barrier
// and counting k appends.
func TestWALGroupAppendMatchesSerial(t *testing.T) {
	const recBytes = recHeaderSize + 4 + updateBytes*5
	// Records 1..6 fill the first segment to exactly its threshold.
	opt := Options{SegmentBytes: segHeaderSize + 6*recBytes}

	serial := opt
	serial.Dir = t.TempDir()
	ls, _, err := Open(serial)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 7; seq++ {
		if err := ls.Append(seq, testBatch(int64(seq), 5)); err != nil {
			t.Fatal(err)
		}
	}
	ls.Close()

	var writes, syncs int
	grouped := opt
	grouped.Dir, grouped.FS = t.TempDir(), countFS{FS: OSFS{}, writes: &writes, syncs: &syncs}
	lg, _, err := Open(grouped)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(1, testBatch(1, 5)); err != nil { // opens the segment: header write, record write, barrier
		t.Fatal(err)
	}
	writes, syncs = 0, 0
	if err := lg.AppendGroup(2, groupPayloads(2, 4)); err != nil {
		t.Fatal(err)
	}
	if writes != 1 || syncs != 1 {
		t.Fatalf("a group of 3 cost %d writes and %d fsyncs, want 1 and 1", writes, syncs)
	}
	if st := lg.Stats(); st.Appends != 4 || st.Fsyncs != 2 || lg.LastSeq() != 4 || lg.DurableSeq() != 4 {
		t.Fatalf("after 1 + a group of 3: stats %+v, last %d, durable %d", st, lg.LastSeq(), lg.DurableSeq())
	}
	if err := lg.AppendGroup(5, groupPayloads(5, 6)); err != nil { // crosses the threshold at its last record
		t.Fatal(err)
	}
	if st := lg.Stats(); st.Rotations != 1 {
		t.Fatalf("rotations = %d after the group that filled the segment, want 1", st.Rotations)
	}
	if err := lg.AppendGroup(7, groupPayloads(7, 7)); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	requireSameSegments(t, "grouped log", grouped.Dir, serial.Dir)
	if got := replaySeqs(t, grouped.Dir, 1, Options{}); len(got) != 7 || got[6] != 7 {
		t.Fatalf("replay of the grouped log got %v, want 1..7", got)
	}
}

// TestWALBarrierOnlyWhenUnsynced: an fsync is spent only on records not
// yet durable. Under SyncEachBatch a group settles with its own fsync,
// so a Sync right after it (a checkpoint save's barrier), the rotation
// that follows a group's barrier and Close find nothing left to sync. A
// failed fsync leaves its records unsynced, so the retry still issues
// one.
func TestWALBarrierOnlyWhenUnsynced(t *testing.T) {
	const recBytes = recHeaderSize + 4 + updateBytes*5
	var writes, syncs, failures int
	fs := countFS{FS: failSyncFS{FS: OSFS{}, failures: &failures}, writes: &writes, syncs: &syncs}
	l, _, err := Open(Options{Dir: t.TempDir(), FS: fs, SegmentBytes: segHeaderSize + 5*recBytes})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendGroup(1, groupPayloads(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("a group and a Sync cost %d fsyncs, want 1", syncs)
	}
	if err := l.AppendGroup(4, groupPayloads(4, 5)); err != nil { // fills the segment: barrier, then rotation
		t.Fatal(err)
	}
	if syncs != 2 || l.Stats().Rotations != 1 {
		t.Fatalf("a group that seals its segment: %d fsyncs in all, %d rotations; want 2 and 1", syncs, l.Stats().Rotations)
	}
	if err := l.AppendGroup(6, groupPayloads(6, 6)); err != nil {
		t.Fatal(err)
	}
	failures = 1
	var nd *NotDurableError
	if err := l.AppendGroup(7, groupPayloads(7, 7)); !errors.As(err, &nd) {
		t.Fatalf("fsync failure surfaced as %v, want *NotDurableError", err)
	}
	if err := l.AppendGroup(7, groupPayloads(7, 7)); err != nil {
		t.Fatalf("retry after the failed barrier: %v", err)
	}
	if syncs != 5 || l.DurableSeq() != 7 {
		t.Fatalf("after a failed barrier and its retry: %d fsync calls, durable %d; want 5 and 7", syncs, l.DurableSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); syncs != 5 || st.Fsyncs != 4 {
		t.Fatalf("Close of a durable log: %d fsync calls (%d succeeded), want 5 (4)", syncs, st.Fsyncs)
	}
}

// TestWALGroupRetryInDifferentShape generalises the one sanctioned repeat
// (TestSyncFailureRetrySameSeq): a group of 5 whose barrier fails is in
// the file but not settled, and the retry may come back in any grouping
// from its first sequence on — here as 2, then 4 (three already there,
// one new). What is there is skipped, the rest appended, the barrier
// re-driven, and the log ends byte-identical to one that never failed.
func TestWALGroupRetryInDifferentShape(t *testing.T) {
	clean := t.TempDir()
	lc, _, err := Open(Options{Dir: clean})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 8; seq++ {
		if err := lc.Append(seq, testBatch(int64(seq), 5)); err != nil {
			t.Fatal(err)
		}
	}
	lc.Close()

	dir := t.TempDir()
	failures := 0
	l, _, err := Open(Options{Dir: dir, FS: failSyncFS{FS: OSFS{}, failures: &failures}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendGroup(1, groupPayloads(1, 2)); err != nil {
		t.Fatal(err)
	}
	failures = 1
	err = l.AppendGroup(3, groupPayloads(3, 7))
	var nd *NotDurableError
	if !errors.As(err, &nd) {
		t.Fatalf("fsync failure under a group surfaced as %T (%v), want *NotDurableError", err, err)
	}
	if l.LastSeq() != 7 || l.DurableSeq() != 2 {
		t.Fatalf("last=%d durable=%d, want 7/2 after the failed barrier", l.LastSeq(), l.DurableSeq())
	}
	// A sequence that settled long ago is not a retry.
	if err := l.AppendGroup(2, groupPayloads(2, 3)); err == nil {
		t.Fatal("a group restarting at an already settled sequence was accepted")
	}
	if err := l.AppendGroup(3, groupPayloads(3, 4)); err != nil {
		t.Fatalf("retry of the first two: %v", err)
	}
	if l.LastSeq() != 7 || l.DurableSeq() != 7 {
		t.Fatalf("last=%d durable=%d after the retried barrier, want 7/7", l.LastSeq(), l.DurableSeq())
	}
	if err := l.AppendGroup(5, groupPayloads(5, 8)); err != nil {
		t.Fatalf("retry of the rest plus one new record: %v", err)
	}
	if st := l.Stats(); st.Appends != 8 || l.LastSeq() != 8 || l.DurableSeq() != 8 {
		t.Fatalf("stats %+v, last %d, durable %d; want 8 appends through seq 8", st, l.LastSeq(), l.DurableSeq())
	}
	// Settled now: the same group again is a contiguity error, not a retry.
	if err := l.AppendGroup(5, groupPayloads(5, 8)); err == nil {
		t.Fatal("a settled group was accepted a second time")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	requireSameSegments(t, "retried log", dir, clean)
}
