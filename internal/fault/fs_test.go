package fault

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/wal"
)

func walBatch(seed int64) []graph.Update {
	rng := rand.New(rand.NewSource(seed))
	batch := make([]graph.Update, 8)
	for i := range batch {
		batch[i] = graph.Update{Edge: graph.Edge{
			Src:    graph.VertexID(rng.Intn(100)),
			Dst:    graph.VertexID(rng.Intn(100)),
			Weight: float32(rng.Float64()),
		}}
	}
	return batch
}

func TestFaultFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	in := New(7)
	in.Arm(WALTorn, 150) // tear inside the second record
	l, _, err := wal.Open(wal.Options{Dir: dir, FS: in.FS(wal.OSFS{})})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, walBatch(1)); err != nil {
		t.Fatalf("first append should fit under the tear budget: %v", err)
	}
	err = l.Append(2, walBatch(2))
	if err == nil {
		t.Fatal("torn write did not surface")
	}
	var le *wal.LogError
	if !errors.As(err, &le) || !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want *wal.LogError wrapping ErrInjected", err)
	}
	if got := in.Injected(); len(got) != 1 || got[0].Class != WALTorn {
		t.Fatalf("injected counts: %v", got)
	}

	// The log repaired the tear in place at append time (truncating the
	// segment back to its last valid record), so recovery over the real
	// files finds a clean log: seq 1 survives, the torn seq 2 is gone
	// and there is nothing left to repair.
	l2, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rec.LastSeq != 1 || rec.Repaired() {
		t.Fatalf("recovery %+v, want clean log with LastSeq=1 (tear repaired at append time)", rec)
	}
	l2.Close()
}

func TestFaultFSDiskFull(t *testing.T) {
	dir := t.TempDir()
	in := New(7)
	in.Arm(DiskFull, 120)
	l, _, err := wal.Open(wal.Options{Dir: dir, FS: in.FS(wal.OSFS{})})
	if err != nil {
		t.Fatal(err)
	}
	var ferr error
	for seq := uint64(1); seq <= 8; seq++ {
		if ferr = l.Append(seq, walBatch(int64(seq))); ferr != nil {
			break
		}
	}
	if ferr == nil {
		t.Fatal("disk-full never surfaced")
	}
	if !errors.Is(ferr, ErrInjected) {
		t.Fatalf("error lost the injected sentinel: %v", ferr)
	}
	recoversDurablePrefix(t, dir, l.DurableSeq())
}

// recoversDurablePrefix reboots the log on the clean filesystem: every
// batch that was durable before the fault struck must still be there.
func recoversDurablePrefix(t *testing.T, dir string, durable uint64) {
	t.Helper()
	l, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer l.Close()
	if l.LastSeq() < durable {
		t.Fatalf("durable seq %d lost: recovered only to %d", durable, l.LastSeq())
	}
}

func TestFaultFSFsyncErr(t *testing.T) {
	dir := t.TempDir()
	in := New(7)
	in.Arm(FsyncErr, 1) // one good fsync, then failure
	l, _, err := wal.Open(wal.Options{Dir: dir, FS: in.FS(wal.OSFS{}), Sync: wal.SyncEachBatch})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, walBatch(1)); err != nil {
		t.Fatalf("first append (budgeted fsync): %v", err)
	}
	err = l.Append(2, walBatch(2))
	if err == nil {
		t.Fatal("fsync error did not surface")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error lost the injected sentinel: %v", err)
	}
	if l.DurableSeq() != 1 {
		t.Fatalf("durable=%d after failed fsync, want 1", l.DurableSeq())
	}
	recoversDurablePrefix(t, dir, 1)
}

func TestCorruptSegment(t *testing.T) {
	in := New(3)
	in.Arm(PartialSeg, 0.5)
	data := make([]byte, 100)
	out := in.CorruptSegment(data)
	if len(out) != 50 {
		t.Fatalf("len=%d, want 50", len(out))
	}
	// Disarmed: untouched copy.
	if got := New(3).CorruptSegment(data); len(got) != 100 {
		t.Fatalf("disarmed CorruptSegment changed length to %d", len(got))
	}

	// On a real sealed log the dropped tail is a torn tail: recovery
	// truncates to the last whole record and replays exactly that many.
	dir := t.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncEachBatch})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for seq := uint64(1); seq <= n; seq++ {
		if err := l.Append(seq, walBatch(int64(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.OSFS{}.List(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listing segments: %v (%d found)", err, len(segs))
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	sealed, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, in.CorruptSegment(sealed), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery over a torn tail: %v", err)
	}
	defer l2.Close()
	if !rec.Repaired() || rec.LastSeq >= n {
		t.Fatalf("recovery %+v, want a repaired tail short of seq %d", rec, n)
	}
	replayed := uint64(0)
	if err := l2.Replay(1, func(uint64, []graph.Update) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replayed != rec.LastSeq {
		t.Fatalf("replayed %d records, recovery says %d", replayed, rec.LastSeq)
	}
}

func TestCrashFSLosesOnlyUnsynced(t *testing.T) {
	dir := t.TempDir()
	cfs := NewCrashFS()
	l, _, err := wal.Open(wal.Options{Dir: dir, FS: cfs, Sync: wal.SyncEachBatch})
	if err != nil {
		t.Fatal(err)
	}
	// Two synced batches, then crash mid-write of the third.
	for seq := uint64(1); seq <= 2; seq++ {
		if err := l.Append(seq, walBatch(int64(seq))); err != nil {
			t.Fatal(err)
		}
	}
	cfs.ArmCrash(10) // die 10 bytes into the next record
	func() {
		defer func() {
			if _, ok := recover().(CrashSignal); !ok {
				t.Fatal("armed crash did not fire as CrashSignal")
			}
		}()
		l.Append(3, walBatch(3))
		t.Fatal("append survived the armed crash")
	}()
	if !cfs.Crashed() {
		t.Fatal("Crashed() false after crash")
	}
	if err := cfs.LoseUnsynced(rand.New(rand.NewSource(9))); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if rec.LastSeq != 2 {
		t.Fatalf("recovered LastSeq=%d, want the 2 fsynced batches", rec.LastSeq)
	}
	n := 0
	if err := l2.Replay(1, func(seq uint64, b []graph.Update) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d records, want 2", n)
	}
	l2.Close()
}

// TestCrashFSWALGroupCrashKeepsCleanPrefix: a commit group is one write
// and one barrier, so a crash has two new places to land — between the
// group's write and its barrier, and inside record j of the write. Over
// seeded page-cache losses both recover to the two records that were
// reported durable plus a clean prefix of the group (possibly none of
// it, never a damaged record, never past the group), each replayed with
// the bytes it was appended with.
func TestCrashFSWALGroupCrashKeepsCleanPrefix(t *testing.T) {
	var group [][]byte
	for seq := int64(3); seq <= 7; seq++ {
		group = append(group, wal.EncodeBatch(walBatch(seq)))
	}
	recBytes := int64(16 + len(group[0]))
	for _, crash := range []struct {
		name    string
		arm     func(*CrashFS)
		maxLast uint64 // the last record that can have reached the file whole
	}{
		{"between write and barrier", func(c *CrashFS) { c.ArmCrashAtSync(0) }, 7},
		{"torn inside record 3 of 5", func(c *CrashFS) { c.ArmCrash(2*recBytes + 9) }, 4},
	} {
		name, arm := crash.name, crash.arm
		for seed := int64(1); seed <= 8; seed++ {
			dir := t.TempDir()
			cfs := NewCrashFS()
			l, _, err := wal.Open(wal.Options{Dir: dir, FS: cfs, Sync: wal.SyncEachBatch})
			if err != nil {
				t.Fatal(err)
			}
			for seq := uint64(1); seq <= 2; seq++ {
				if err := l.Append(seq, walBatch(int64(seq))); err != nil {
					t.Fatal(err)
				}
			}
			arm(cfs)
			func() {
				defer func() {
					if _, ok := recover().(CrashSignal); !ok {
						t.Fatalf("%s: armed crash did not fire as CrashSignal", name)
					}
				}()
				l.AppendGroup(3, group)
				t.Fatalf("%s: the group append survived the armed crash", name)
			}()
			if l.DurableSeq() != 2 {
				t.Fatalf("%s: DurableSeq=%d at the crash, want 2: part of an unsynced group was reported durable", name, l.DurableSeq())
			}
			if err := cfs.LoseUnsynced(rand.New(rand.NewSource(seed))); err != nil {
				t.Fatal(err)
			}
			l2, rec, err := wal.Open(wal.Options{Dir: dir})
			if err != nil {
				t.Fatalf("%s seed %d: recovery: %v", name, seed, err)
			}
			if rec.LastSeq < 2 || rec.LastSeq > crash.maxLast {
				t.Fatalf("%s seed %d: recovered LastSeq=%d, want the 2 durable records plus a prefix of the group", name, seed, rec.LastSeq)
			}
			next := uint64(1)
			err = l2.Replay(1, func(seq uint64, b []graph.Update) error {
				if seq != next || !bytes.Equal(wal.EncodeBatch(b), wal.EncodeBatch(walBatch(int64(seq)))) {
					t.Fatalf("%s seed %d: replay produced seq %d (want %d) or not the batch appended there", name, seed, seq, next)
				}
				next++
				return nil
			})
			if err != nil || next-1 != rec.LastSeq {
				t.Fatalf("%s seed %d: replayed through %d, recovery says %d (err %v)", name, seed, next-1, rec.LastSeq, err)
			}
			l2.Close()
		}
	}
}

func TestCrashFSDelegates(t *testing.T) {
	dir := t.TempDir()
	cfs := NewCrashFS()
	path := filepath.Join(dir, "x")
	f, err := cfs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := cfs.List(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("List: %v %v", names, err)
	}
	if err := cfs.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Remove did not delete the file")
	}
}

func TestParseNewClasses(t *testing.T) {
	in, err := Parse("wal-torn:64,fsync-err,disk-full:2048,wal-partial", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Class{WALTorn, FsyncErr, DiskFull, PartialSeg} {
		if !in.Enabled(c) {
			t.Fatalf("class %s not armed by Parse", c)
		}
	}
	if in.Param(WALTorn) != 64 || in.Param(FsyncErr) != defaultParam[FsyncErr] {
		t.Fatalf("params: torn=%v fsync=%v", in.Param(WALTorn), in.Param(FsyncErr))
	}
}
