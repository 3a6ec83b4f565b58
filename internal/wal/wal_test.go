package wal

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/tdgraph/tdgraph/internal/graph"
)

func testBatch(seed int64, n int) []graph.Update {
	rng := rand.New(rand.NewSource(seed))
	batch := make([]graph.Update, n)
	for i := range batch {
		batch[i] = graph.Update{
			Edge: graph.Edge{
				Src:    graph.VertexID(rng.Intn(1000)),
				Dst:    graph.VertexID(rng.Intn(1000)),
				Weight: float32(rng.Float64() * 10),
			},
			Delete: rng.Intn(4) == 0,
		}
	}
	return batch
}

func batchesEqual(a, b []graph.Update) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Delete != b[i].Delete || a[i].Edge.Src != b[i].Edge.Src ||
			a[i].Edge.Dst != b[i].Edge.Dst ||
			math.Float32bits(a[i].Edge.Weight) != math.Float32bits(b[i].Edge.Weight) {
			return false
		}
	}
	return true
}

func TestBatchRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		in := testBatch(int64(n), n)
		out, err := DecodeBatch(EncodeBatch(in))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !batchesEqual(in, out) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
	if _, err := DecodeBatch([]byte{1, 2}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short payload: got %v, want ErrCorrupt", err)
	}
}

// appendN opens a log in dir and appends batches 1..n.
func appendN(t *testing.T, dir string, n int, opt Options) *Log {
	t.Helper()
	opt.Dir = dir
	l, rec, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	start := rec.LastSeq
	for seq := start + 1; seq <= start+uint64(n); seq++ {
		if err := l.Append(seq, testBatch(int64(seq), 5)); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
	}
	return l
}

func replaySeqs(t *testing.T, dir string, from uint64, opt Options) []uint64 {
	t.Helper()
	opt.Dir = dir
	l, _, err := Open(opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	var seqs []uint64
	err = l.Replay(from, func(seq uint64, batch []graph.Update) error {
		if !batchesEqual(batch, testBatch(int64(seq), 5)) {
			t.Fatalf("seq %d: replayed batch differs from appended", seq)
		}
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return seqs
}

func TestAppendReplay(t *testing.T) {
	dir := t.TempDir()
	l := appendN(t, dir, 10, Options{})
	if l.LastSeq() != 10 || l.DurableSeq() != 10 {
		t.Fatalf("last=%d durable=%d, want 10/10", l.LastSeq(), l.DurableSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seqs := replaySeqs(t, dir, 1, Options{})
	if len(seqs) != 10 || seqs[0] != 1 || seqs[9] != 10 {
		t.Fatalf("replayed %v, want 1..10", seqs)
	}
	if got := replaySeqs(t, dir, 7, Options{}); len(got) != 4 || got[0] != 7 {
		t.Fatalf("partial replay got %v, want 7..10", got)
	}
}

func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every append rotates.
	l := appendN(t, dir, 8, Options{SegmentBytes: 1})
	if l.Stats().Rotations == 0 {
		t.Fatal("no rotations despite 1-byte segment threshold")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := OSFS{}.List(dir)
	if len(names) < 8 {
		t.Fatalf("expected >=8 segments, got %v", names)
	}

	fs := &dirSyncCounter{}
	l, _, err := Open(Options{Dir: dir, SegmentBytes: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	// The directory is fsynced by a call that removed a segment, and only
	// by such a call: the second one here finds nothing left to remove.
	for _, want := range []int{1, 0} {
		fs.syncs = 0
		if err := l.TruncateThrough(5); err != nil {
			t.Fatalf("TruncateThrough: %v", err)
		}
		if fs.syncs != want {
			t.Fatalf("TruncateThrough fsynced the directory %d times, want %d", fs.syncs, want)
		}
	}
	// Everything <= 5 must be gone, everything > 5 still replayable.
	if got := replaySeqs(t, dir, 1, Options{}); len(got) != 3 || got[0] != 6 {
		t.Fatalf("after retention, replay got %v, want 6..8", got)
	}
}

// dirSyncCounter is the real filesystem counting directory fsyncs.
type dirSyncCounter struct {
	OSFS
	syncs int
}

func (c *dirSyncCounter) SyncDir(dir string) error {
	c.syncs++
	return c.OSFS.SyncDir(dir)
}

func TestAppendAfterRetentionGap(t *testing.T) {
	dir := t.TempDir()
	l := appendN(t, dir, 4, Options{SegmentBytes: 1})
	if err := l.TruncateThrough(4); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh process whose checkpoint covers 1..4 appends from 5.
	l2 := appendN(t, dir, 2, Options{})
	if l2.LastSeq() != 6 {
		t.Fatalf("lastSeq=%d, want 6", l2.LastSeq())
	}
	l2.Close()
}

func TestNonContiguousAppendRejected(t *testing.T) {
	dir := t.TempDir()
	l := appendN(t, dir, 2, Options{})
	defer l.Close()
	if err := l.Append(9, nil); err == nil {
		t.Fatal("append of seq 9 after 2 succeeded")
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int64{1, 5, recHeaderSize - 1, recHeaderSize + 3} {
		dir := t.TempDir()
		l := appendN(t, dir, 6, Options{})
		l.Close()
		names, _ := OSFS{}.List(dir)
		path := filepath.Join(dir, names[len(names)-1])
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// Tear `cut` bytes off the final segment: mid-payload or
		// mid-header depending on cut.
		if err := os.Truncate(path, fi.Size()-cut); err != nil {
			t.Fatal(err)
		}
		l2, rec, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if rec.LastSeq != 5 {
			t.Fatalf("cut=%d: recovered LastSeq=%d, want 5", cut, rec.LastSeq)
		}
		if rec.TornSegment == "" || !rec.Repaired() {
			t.Fatalf("cut=%d: tear not reported: %+v", cut, rec)
		}
		if got := replaySeqs(t, dir, 1, Options{}); len(got) != 5 {
			t.Fatalf("cut=%d: replay after repair got %v", cut, got)
		}
		// The repaired log accepts the re-sent record.
		if err := l2.Append(6, testBatch(6, 5)); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		l2.Close()
	}
}

func TestTornBitFlipInTail(t *testing.T) {
	dir := t.TempDir()
	l := appendN(t, dir, 3, Options{})
	l.Close()
	names, _ := OSFS{}.List(dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40 // flip inside the final record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec.LastSeq != 2 || rec.TornSegment == "" {
		t.Fatalf("recovery %+v, want LastSeq=2 with torn tail", rec)
	}
}

func TestCorruptSealedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	l := appendN(t, dir, 6, Options{SegmentBytes: 1}) // one record per segment
	l.Close()
	names, _ := OSFS{}.List(dir)
	if len(names) < 3 {
		t.Fatalf("want >=3 segments, got %v", names)
	}
	// Damage a middle (sealed) segment.
	path := filepath.Join(dir, names[1])
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	_, _, err := Open(Options{Dir: dir})
	if err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
	var le *LogError
	if !errors.As(err, &le) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want *LogError wrapping ErrCorrupt", err)
	}
}

func TestHeaderlessFinalSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	l := appendN(t, dir, 3, Options{})
	l.Close()
	// Simulate a crash between segment create and header write.
	stub := filepath.Join(dir, segName(4))
	if err := os.WriteFile(stub, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec.RemovedSegment != segName(4) || rec.LastSeq != 3 {
		t.Fatalf("recovery %+v, want removed stub and LastSeq=3", rec)
	}
	if _, err := os.Stat(stub); !os.IsNotExist(err) {
		t.Fatal("stub segment still on disk")
	}
}

func TestSyncPolicies(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Dir: dir, Sync: SyncEvery, Interval: 3}
	l, _, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 7; seq++ {
		if err := l.Append(seq, testBatch(int64(seq), 2)); err != nil {
			t.Fatal(err)
		}
	}
	// 7 appends at interval 3 → fsyncs after 3 and 6; durable lags at 6.
	if l.DurableSeq() != 6 {
		t.Fatalf("durable=%d, want 6", l.DurableSeq())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.DurableSeq() != 7 {
		t.Fatalf("durable=%d after explicit Sync, want 7", l.DurableSeq())
	}

	dir2 := t.TempDir()
	l2, _, err := Open(Options{Dir: dir2, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(1, testBatch(1, 2)); err != nil {
		t.Fatal(err)
	}
	if l2.DurableSeq() != 0 {
		t.Fatalf("SyncNone advanced durable to %d", l2.DurableSeq())
	}
	if l2.Stats().Appends != 1 {
		t.Fatalf("stats: %+v", l2.Stats())
	}
	l2.Close()
	l.Close()
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in       string
		policy   SyncPolicy
		interval int
		wantErr  bool
	}{
		{"", SyncEachBatch, 0, false},
		{"batch", SyncEachBatch, 0, false},
		{"off", SyncNone, 0, false},
		{"interval:8", SyncEvery, 8, false},
		{"interval:0", 0, 0, true},
		{"sometimes", 0, 0, true},
	}
	for _, c := range cases {
		p, n, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.wantErr {
			t.Fatalf("%q: err=%v, wantErr=%v", c.in, err, c.wantErr)
		}
		if err == nil && (p != c.policy || n != c.interval) {
			t.Fatalf("%q: got (%v,%d), want (%v,%d)", c.in, p, n, c.policy, c.interval)
		}
	}
}

// failSyncFS fails File.Sync while *failures > 0 — a transient fsync
// error the log must survive without wedging.
type failSyncFS struct {
	FS
	failures *int
}

func (f failSyncFS) Create(path string) (File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &failSyncFile{File: file, failures: f.failures}, nil
}

type failSyncFile struct {
	File
	failures *int
}

func (f *failSyncFile) Sync() error {
	if *f.failures > 0 {
		*f.failures--
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// TestSyncFailureRetrySameSeq: an append whose record lands but whose
// fsync fails reports *NotDurableError, and a retry of the SAME
// sequence re-drives the barrier instead of tripping the contiguity
// check — the fsync-fail-then-continue path.
func TestSyncFailureRetrySameSeq(t *testing.T) {
	dir := t.TempDir()
	failures := 0
	l, _, err := Open(Options{Dir: dir, FS: failSyncFS{FS: OSFS{}, failures: &failures}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, testBatch(1, 5)); err != nil {
		t.Fatal(err)
	}

	failures = 1
	err = l.Append(2, testBatch(2, 5))
	var nd *NotDurableError
	if !errors.As(err, &nd) {
		t.Fatalf("fsync failure surfaced as %T (%v), want *NotDurableError", err, err)
	}
	if l.LastSeq() != 2 || l.DurableSeq() != 1 {
		t.Fatalf("last=%d durable=%d, want 2/1 after failed barrier", l.LastSeq(), l.DurableSeq())
	}

	// The supervisor retries the same sequence: no contiguity error, no
	// second copy of the record, and the barrier completes.
	if err := l.Append(2, testBatch(2, 5)); err != nil {
		t.Fatalf("retry of seq 2 failed: %v", err)
	}
	if l.DurableSeq() != 2 {
		t.Fatalf("durable=%d after retry, want 2", l.DurableSeq())
	}
	if err := l.Append(3, testBatch(3, 5)); err != nil {
		t.Fatalf("append after healed barrier: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay proves the retried record was written exactly once (a
	// duplicate would break sequence continuity as ErrCorrupt).
	if got := replaySeqs(t, dir, 1, Options{}); len(got) != 3 || got[2] != 3 {
		t.Fatalf("replay got %v, want 1..3", got)
	}
}

// tornFS tears exactly one write while *armed: a prefix of the record
// reaches the file, then the write fails — the mid-log torn-write case.
type tornFS struct {
	FS
	armed *bool
	keep  int64 // bytes of the torn write that land
}

func (f tornFS) Create(path string) (File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &tornFile{File: file, armed: f.armed, keep: f.keep}, nil
}

type tornFile struct {
	File
	armed *bool
	keep  int64
}

func (f *tornFile) Write(p []byte) (int, error) {
	if *f.armed && int64(len(p)) > f.keep {
		*f.armed = false
		n, _ := f.File.Write(p[:f.keep])
		return n, errors.New("injected torn write")
	}
	return f.File.Write(p)
}

// TestTornWriteRepairedInPlace: a partial record write mid-log is
// truncated away immediately, so the damaged segment seals clean and
// the log stays fully recoverable — no ErrCorrupt on the next Open.
func TestTornWriteRepairedInPlace(t *testing.T) {
	dir := t.TempDir()
	armed := false
	l, _, err := Open(Options{Dir: dir, FS: tornFS{FS: OSFS{}, armed: &armed, keep: 7}})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := l.Append(seq, testBatch(int64(seq), 5)); err != nil {
			t.Fatal(err)
		}
	}

	armed = true
	err = l.Append(3, testBatch(3, 5))
	if err == nil {
		t.Fatal("torn write never surfaced")
	}
	var nd *NotDurableError
	if errors.As(err, &nd) {
		t.Fatalf("pre-barrier write failure misclassified as not-durable: %v", err)
	}
	if l.LastSeq() != 2 {
		t.Fatalf("lastSeq=%d after torn write, want 2", l.LastSeq())
	}

	// The batch never reached the log, so the supervisor re-sends it;
	// the repaired log accepts it into a successor segment.
	for seq := uint64(3); seq <= 4; seq++ {
		if err := l.Append(seq, testBatch(int64(seq), 5)); err != nil {
			t.Fatalf("Append(%d) after repair: %v", seq, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The formerly-damaged segment is now sealed mid-log: Open must see
	// a clean log, not corruption.
	if got := replaySeqs(t, dir, 1, Options{}); len(got) != 4 || got[3] != 4 {
		t.Fatalf("replay after in-place repair got %v, want 1..4", got)
	}
}

// noTruncFS refuses truncation, so tear repair cannot run.
type noTruncFS struct{ FS }

func (noTruncFS) Truncate(string, int64) error { return errors.New("injected truncate failure") }

// TestTornRepairFailurePoisonsLog: when the in-place repair itself
// fails, the log seals itself — appending past an unrepaired tear
// would corrupt it silently.
func TestTornRepairFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	armed := false
	l, _, err := Open(Options{Dir: dir, FS: noTruncFS{FS: tornFS{FS: OSFS{}, armed: &armed, keep: 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, testBatch(1, 5)); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := l.Append(2, testBatch(2, 5)); err == nil {
		t.Fatal("torn write never surfaced")
	}
	err = l.Append(2, testBatch(2, 5))
	if err == nil {
		t.Fatal("append on a sealed log succeeded")
	}
	var le *LogError
	if !errors.As(err, &le) {
		t.Fatalf("sticky failure is %T (%v), want *LogError", err, err)
	}
	if l.LastSeq() != 1 {
		t.Fatalf("lastSeq=%d on sealed log, want 1", l.LastSeq())
	}
}

// TestFirstSeqTracksRetention: FirstSeq follows the oldest retained
// segment across appends, retention and reopen — the recovery-gap
// detector depends on it.
func TestFirstSeqTracksRetention(t *testing.T) {
	dir := t.TempDir()
	l := appendN(t, dir, 6, Options{SegmentBytes: 1}) // one record per segment
	if l.FirstSeq() != 1 {
		t.Fatalf("FirstSeq=%d, want 1", l.FirstSeq())
	}
	if err := l.TruncateThrough(4); err != nil {
		t.Fatal(err)
	}
	if l.FirstSeq() != 5 {
		t.Fatalf("FirstSeq=%d after retention through 4, want 5", l.FirstSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if l2.FirstSeq() != 5 {
		t.Fatalf("FirstSeq=%d after reopen, want 5", l2.FirstSeq())
	}
	l2.Close()

	empty, _, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if empty.FirstSeq() != 0 {
		t.Fatalf("empty log FirstSeq=%d, want 0", empty.FirstSeq())
	}
	empty.Close()
}

func TestSegNameRoundTrip(t *testing.T) {
	for _, seq := range []uint64{1, 42, 1 << 40} {
		got, ok := parseSegName(segName(seq))
		if !ok || got != seq {
			t.Fatalf("seg name round trip for %d: got %d,%v", seq, got, ok)
		}
	}
	for _, bad := range []string{"x.wal", "0001.wal", "00000000000000000001.seg"} {
		if _, ok := parseSegName(bad); ok {
			t.Fatalf("parseSegName accepted %q", bad)
		}
	}
}
