package replica

import (
	"bytes"
	"errors"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"testing"

	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// makeSnapshot builds a throwaway pipeline, ingests the first n batches,
// and returns its newest checkpoint generation — the covered sequence,
// the raw checkpoint bytes, and the states the snapshot encodes (what a
// correct install must reproduce).
func makeSnapshot(t *testing.T, w *stream.Workload, n int) (uint64, []byte, []float64) {
	t.Helper()
	cfg := nodeConfig(w, t.TempDir())
	pipe, err := serve.NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:n] {
		if err := pipe.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	states := append([]float64(nil), pipe.Session().States()...)
	if err := pipe.Close(); err != nil { // the final checkpoint covers seq n
		t.Fatal(err)
	}
	seq, data, err := pipe.SnapshotSource().NewestSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(n) {
		t.Fatalf("snapshot covers seq %d, want %d", seq, n)
	}
	return seq, data, states
}

// handshake opens a raw primary-side session against fl: Hello at term,
// Welcome back. The test then speaks frames by hand.
func handshake(t *testing.T, fl *Follower, term uint64) (net.Conn, chan error) {
	t.Helper()
	pside, fside := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- fl.Serve(fside) }()
	if err := WriteFrame(pside, Frame{Type: FrameHello, Term: term}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(pside)
	if err != nil || f.Type != FrameWelcome {
		t.Fatalf("welcome: %+v, %v", f, err)
	}
	return pside, done
}

func mustAck(t *testing.T, conn net.Conn, wantSeq uint64, what string) {
	t.Helper()
	f, err := ReadFrame(conn)
	if err != nil || f.Type != FrameAck || f.Seq != wantSeq {
		t.Fatalf("%s: got %+v (err %v), want Ack seq %d", what, f, err, wantSeq)
	}
}

func mustReject(t *testing.T, conn net.Conn, what string) {
	t.Helper()
	f, err := ReadFrame(conn)
	if err != nil || f.Type != FrameReject {
		t.Fatalf("%s: got %+v (err %v), want Reject", what, f, err)
	}
}

// TestSnapOfferCodec pins the offer payload format: a byte-identical
// round trip for every shape, and typed *FrameError/ErrBadFrame
// failures for malformed payloads.
func TestSnapOfferCodec(t *testing.T) {
	for _, o := range []snapOffer{
		{},
		{Total: 1 << 30, CRC: 0xDEADBEEF},
		{Total: 9, Ledger: []TermBase{{Term: 1, Base: 1}, {Term: 4, Base: 77}}},
		{Total: 12, CRC: 1, Ledger: []TermBase{{Term: 2, Base: 5}}},
	} {
		enc := o.encode()
		got, err := decodeSnapOffer(enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", o, err)
		}
		if !bytes.Equal(got.encode(), enc) {
			t.Fatalf("round trip not byte-identical for %+v", o)
		}
		if got.Total != o.Total || got.CRC != o.CRC || len(got.Ledger) != len(o.Ledger) {
			t.Fatalf("round trip changed fields: %+v -> %+v", o, got)
		}
	}

	full := snapOffer{Total: 5, CRC: 9, Ledger: []TermBase{{Term: 1, Base: 1}}}.encode()
	for name, payload := range map[string][]byte{
		"empty":            nil,
		"truncated header": full[:10],
		"truncated ledger": full[:len(full)-1],
		"trailing slack":   append(append([]byte(nil), full...), 0),
	} {
		_, err := decodeSnapOffer(payload)
		var fe *FrameError
		if !errors.As(err, &fe) || !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: want *FrameError wrapping ErrBadFrame, got %v", name, err)
		}
	}
}

// TestReseedMarkCodec: the resume mark round-trips, and any damage —
// wrong size, flipped bytes, wrong magic — reads as "no mark" rather
// than a bogus resume offset.
func TestReseedMarkCodec(t *testing.T) {
	fl := &Follower{fs: wal.OSFS{}, dir: t.TempDir()}
	offer := snapOffer{Total: 4096, CRC: 0xABCD1234}
	if err := fl.writeReseedMark(42, offer); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(fl.dir, reseedMarkName))
	if err != nil {
		t.Fatal(err)
	}
	seq, total, crc, ok := decodeReseedMark(raw)
	if !ok || seq != 42 || total != 4096 || crc != 0xABCD1234 {
		t.Fatalf("mark round trip: seq=%d total=%d crc=%08x ok=%v", seq, total, crc, ok)
	}
	for name, data := range map[string][]byte{
		"short":     raw[:reseedMarkSize-1],
		"long":      append(append([]byte(nil), raw...), 0),
		"bit flip":  flipByte(raw, 6),
		"bad magic": flipByte(raw, 0),
	} {
		if _, _, _, ok := decodeReseedMark(data); ok {
			t.Errorf("%s: corrupt mark decoded as valid", name)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

// feedFollower replicates batches[from:to] of w into fl by hand under
// term, building a follower log (and term ledger) without a pipeline.
func feedFollower(t *testing.T, fl *Follower, w *stream.Workload, term uint64, from, to int) {
	t.Helper()
	pside, done := handshake(t, fl, term)
	for i := from; i < to; i++ {
		seq := uint64(i + 1)
		if err := WriteFrame(pside, Frame{Type: FrameRecord, Term: term, Seq: seq, Orig: term,
			Payload: wal.EncodeBatch(w.Batches[i])}); err != nil {
			t.Fatal(err)
		}
		mustAck(t, pside, seq, "record")
	}
	pside.Close()
	if err := <-done; err != nil {
		t.Fatalf("feed session: %v", err)
	}
}

// TestDivergedFollowerAutoReseeded: where PR 4's primary could only
// refuse a diverged replica, one with a SnapshotSource ships its newest
// checkpoint at the handshake, the follower installs it and resets its
// ledger to the shipped history, and ordinary catch-up finishes the
// job — ending with states Float64bits-identical to the reference.
func TestDivergedFollowerAutoReseeded(t *testing.T) {
	w := testWorkload(t, 10)
	want := referenceStates(w)

	// Follower A lives a first life under term 1: all ten batches.
	adir := t.TempDir()
	fa, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, adir)})
	if err != nil {
		t.Fatal(err)
	}
	feedFollower(t, fa, w, 1, 0, 10)
	if fa.Seq() != 10 {
		t.Fatalf("fed follower at seq %d, want 10", fa.Seq())
	}

	// A new primary at term 2 has its own, shorter history — five
	// batches, checkpointed — so A's log is ahead of its end: diverged.
	pdir := t.TempDir()
	col := stats.NewCollector()
	pcfg := nodeConfig(w, pdir)
	pcfg.Collector = col
	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 2); err != nil {
		t.Fatal(err)
	}
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:5] {
		if err := pipe.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	prim := NewPrimary(PrimaryConfig{
		Term: 2, ClusterSize: 2, WAL: pcfg.WAL, Collector: col,
		Snapshots: pipe.SnapshotSource(), SnapChunkBytes: 64,
	})
	na := attach(t, prim, fa, nil) // auto-reseed happens inside AddFollower
	if !prim.HasLive("follower-0") {
		t.Fatal("reseeded follower not attached")
	}
	// The newest checkpoint covered seq 3 (CheckpointEvery=3, 5 ingests);
	// attach installs it and then ships the remaining log in the same
	// breath, so A surfaces already caught up to the primary's end. The
	// chunk counters below prove the prefix travelled as a snapshot, not
	// replayed records.
	if fa.Seq() != 5 {
		t.Fatalf("follower at seq %d after attach, want 5", fa.Seq())
	}
	// A's own generations (seq 9 and 6 of the refused history) went with
	// the install: no fallback restore can reach back past it.
	if _, err := os.Stat(filepath.Join(adir, "ckpt.tds.1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a pre-install generation survived the reseed (err %v)", err)
	}

	pipe.SetRetentionAdvisor(prim)
	for _, b := range w.Batches[5:] {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	prim.Close()
	if err := <-na.done; err != nil {
		t.Fatalf("follower session: %v", err)
	}

	if fa.Seq() != 10 {
		t.Fatalf("follower finished at seq %d, want 10", fa.Seq())
	}
	if !statesEqual(fa.Pipeline().Session().States(), want) {
		t.Fatal("reseeded follower states diverged from reference")
	}
	if got := col.Get(stats.CtrReplReseedOffers); got != 1 {
		t.Fatalf("offers = %d, want 1", got)
	}
	if col.Get(stats.CtrReplReseedChunks) < 2 {
		t.Fatalf("chunks = %d, want >=2 (64-byte chunks)", col.Get(stats.CtrReplReseedChunks))
	}
	if col.Get(stats.CtrReplReseedAborts) != 0 || col.Get(stats.CtrReplReseedResumes) != 0 {
		t.Fatalf("aborts=%d resumes=%d, want 0/0", col.Get(stats.CtrReplReseedAborts), col.Get(stats.CtrReplReseedResumes))
	}
	fcol := fa.Pipeline().Collector()
	if fcol.Get(stats.CtrReplReseedInstalls) != 1 {
		t.Fatalf("follower installs = %d, want 1", fcol.Get(stats.CtrReplReseedInstalls))
	}
	// No transfer litter survives a completed install.
	for _, name := range []string{reseedPartialName, reseedMarkName} {
		if _, err := os.Stat(filepath.Join(adir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s left behind after install (err %v)", name, err)
		}
	}
	fa.Pipeline().Close()
}

// TestLateJoinerReseededPastRetention: a fresh follower joining after
// retention has discarded the head of the log is shipped a checkpoint
// at attach time (reseedIfCompacted) and then catches up from the log —
// the loop that lets retention advance at all in replicated mode.
func TestLateJoinerReseededPastRetention(t *testing.T) {
	w := testWorkload(t, 10)
	want := referenceStates(w)

	pdir := t.TempDir()
	col := stats.NewCollector()
	pcfg := nodeConfig(w, pdir)
	pcfg.Collector = col
	pcfg.WAL.SegmentBytes = 512 // rotate every record or two
	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 1); err != nil {
		t.Fatal(err)
	}
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:8] {
		if err := pipe.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	start, err := wal.StartSeq(pcfg.WAL)
	if err != nil {
		t.Fatal(err)
	}
	if start <= 1 {
		t.Fatalf("retention never advanced (StartSeq %d); the test needs a truncated log", start)
	}

	prim := NewPrimary(PrimaryConfig{
		Term: 1, ClusterSize: 2, WAL: pcfg.WAL, Collector: col,
		Snapshots: pipe.SnapshotSource(), SnapChunkBytes: 128,
	})
	fb, cb, db := startFollower(t, w, t.TempDir())
	if err := prim.AddFollower(cb); err != nil {
		t.Fatalf("late joiner past retention: %v", err)
	}
	// Newest checkpoint covers seq 6 (every 3, 8 ingests); the joiner
	// installs it and attach-time catch-up serves 7..8 from the log, so
	// it is acknowledged at the primary's end before any new traffic.
	if floor, ok := prim.RetainFloor(); !ok || floor != 8 {
		t.Fatalf("acked after reseed = %d (live %v), want 8", floor, ok)
	}

	pipe.SetRetentionAdvisor(prim)
	for _, b := range w.Batches[8:] {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	prim.Close()
	if err := <-db; err != nil {
		t.Fatalf("follower session: %v", err)
	}

	if fb.Seq() != 10 {
		t.Fatalf("late joiner finished at seq %d, want 10", fb.Seq())
	}
	if !statesEqual(fb.Pipeline().Session().States(), want) {
		t.Fatal("late joiner states diverged from reference")
	}
	if col.Get(stats.CtrReplReseedOffers) != 1 {
		t.Fatalf("offers = %d, want 1", col.Get(stats.CtrReplReseedOffers))
	}
	// Records 7 and 8 came from the log after the install.
	if got := col.Get(stats.CtrReplCatchupRecords); got != 2 {
		t.Fatalf("catch-up records = %d, want 2", got)
	}
	fb.Pipeline().Close()
}

// stubSnap is a SnapshotSource returning fixed bytes (or an error).
type stubSnap struct {
	seq  uint64
	data []byte
	err  error
}

func (s stubSnap) NewestSnapshot() (uint64, []byte, error) {
	return s.seq, s.data, s.err
}

// TestReseedRefusedWithoutCheckpointPath: a follower that cannot
// install (no checkpoint path) refuses the offer; both sides count an
// abort and surface ErrReseedAborted.
func TestReseedRefusedWithoutCheckpointPath(t *testing.T) {
	w := testWorkload(t, 4)
	cfg := nodeConfig(w, t.TempDir())
	cfg.CheckpointPath = "" // cannot install
	fl, err := NewFollower(FollowerConfig{Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	pside, done := handshake(t, fl, 1)

	col := stats.NewCollector()
	p := NewPrimary(PrimaryConfig{
		Term: 1, WAL: wal.Options{Dir: t.TempDir()}, Collector: col,
		Snapshots: stubSnap{seq: 3, data: []byte("snapshot bytes")},
	})
	fc := &followerConn{conn: pside, name: "f0"}
	_, rerr := p.reseed(fc)
	if !errors.Is(rerr, ErrReseedAborted) {
		t.Fatalf("primary: want ErrReseedAborted, got %v", rerr)
	}
	pside.Close()
	if serr := <-done; !errors.Is(serr, ErrReseedAborted) {
		t.Fatalf("follower session: want ErrReseedAborted, got %v", serr)
	}
	if col.Get(stats.CtrReplReseedAborts) != 1 {
		t.Fatalf("primary aborts = %d, want 1", col.Get(stats.CtrReplReseedAborts))
	}
	if fl.Pipeline().Collector().Get(stats.CtrReplReseedAborts) != 1 {
		t.Fatalf("follower aborts = %d, want 1", fl.Pipeline().Collector().Get(stats.CtrReplReseedAborts))
	}
	fl.Pipeline().Close()
}

// TestSnapshotTransferFaultTable drives the follower's transfer state
// machine with hand-written frames through every corruption class: a
// byte flipped in flight (whole-file checksum catches it, partial is
// discarded — no resume from poison), torn/overrunning/short chunk
// streams (typed aborts, resumable partial kept), structurally valid
// bytes that fail the checkpoint load, a valid checkpoint offered under
// a sequence it does not say it covers, and a malformed offer payload.
// Every follower has a two-batch life of its own that must survive.
func TestSnapshotTransferFaultTable(t *testing.T) {
	w := testWorkload(t, 6)
	snapSeq, data, _ := makeSnapshot(t, w, 4)
	if len(data) < 64 {
		t.Fatalf("snapshot too small (%d bytes) to split into chunks", len(data))
	}
	half := uint64(len(data) / 2)

	junk := bytes.Repeat([]byte{0x5A, 0xA5, 0x00, 0xFF}, 64)

	offerFor := func(d []byte) snapOffer {
		return snapOffer{Total: uint64(len(d)), CRC: crc32.ChecksumIEEE(d)}
	}
	// shipWhole offers d under offerSeq, streams it in one chunk and
	// ends the transfer under doneSeq: only the verdict is left to read.
	shipWhole := func(t *testing.T, conn net.Conn, d []byte, offerSeq, doneSeq uint64) {
		WriteFrame(conn, Frame{Type: FrameSnapOffer, Term: 1, Seq: offerSeq, Payload: offerFor(d).encode()})
		mustAck(t, conn, 0, "offer answer")
		WriteFrame(conn, Frame{Type: FrameSnapChunk, Term: 1, Seq: 0, Payload: d})
		mustAck(t, conn, uint64(len(d)), "chunk")
		WriteFrame(conn, Frame{Type: FrameSnapDone, Term: 1, Seq: doneSeq})
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, conn net.Conn)
		want error
		// partial+mark removed (poisoned) vs kept (resumable)
		discarded bool
	}{
		{
			name: "byte flipped in flight",
			run: func(t *testing.T, conn net.Conn) {
				offer := offerFor(data)
				WriteFrame(conn, Frame{Type: FrameSnapOffer, Term: 1, Seq: snapSeq, Payload: offer.encode()})
				mustAck(t, conn, 0, "offer answer")
				bad := append([]byte(nil), data[:half]...)
				bad[0] ^= 0x01
				WriteFrame(conn, Frame{Type: FrameSnapChunk, Term: 1, Seq: 0, Payload: bad})
				mustAck(t, conn, half, "chunk 1")
				WriteFrame(conn, Frame{Type: FrameSnapChunk, Term: 1, Seq: half, Payload: data[half:]})
				mustAck(t, conn, uint64(len(data)), "chunk 2")
				WriteFrame(conn, Frame{Type: FrameSnapDone, Term: 1, Seq: snapSeq})
				mustReject(t, conn, "checksum verdict")
			},
			want:      ErrSnapshotCorrupt,
			discarded: true,
		},
		{
			name: "torn chunk stream",
			run: func(t *testing.T, conn net.Conn) {
				offer := offerFor(data)
				WriteFrame(conn, Frame{Type: FrameSnapOffer, Term: 1, Seq: snapSeq, Payload: offer.encode()})
				mustAck(t, conn, 0, "offer answer")
				// A chunk that does not continue byte 0: bytes went missing.
				WriteFrame(conn, Frame{Type: FrameSnapChunk, Term: 1, Seq: half, Payload: data[half:]})
				mustReject(t, conn, "torn chunk verdict")
			},
			want: ErrReseedAborted,
		},
		{
			name: "chunk overruns the offered total",
			run: func(t *testing.T, conn net.Conn) {
				offer := offerFor(data[:half])
				WriteFrame(conn, Frame{Type: FrameSnapOffer, Term: 1, Seq: snapSeq, Payload: offer.encode()})
				mustAck(t, conn, 0, "offer answer")
				WriteFrame(conn, Frame{Type: FrameSnapChunk, Term: 1, Seq: 0, Payload: data})
				mustReject(t, conn, "overrun verdict")
			},
			want: ErrReseedAborted,
		},
		{
			name: "done before all bytes arrived",
			run: func(t *testing.T, conn net.Conn) {
				offer := offerFor(data)
				WriteFrame(conn, Frame{Type: FrameSnapOffer, Term: 1, Seq: snapSeq, Payload: offer.encode()})
				mustAck(t, conn, 0, "offer answer")
				WriteFrame(conn, Frame{Type: FrameSnapChunk, Term: 1, Seq: 0, Payload: data[:half]})
				mustAck(t, conn, half, "chunk 1")
				WriteFrame(conn, Frame{Type: FrameSnapDone, Term: 1, Seq: snapSeq})
				mustReject(t, conn, "short transfer verdict")
			},
			want: ErrReseedAborted,
		},
		{
			name: "valid checksum, unloadable bytes",
			run: func(t *testing.T, conn net.Conn) {
				shipWhole(t, conn, junk, snapSeq, snapSeq)
				mustReject(t, conn, "install verdict")
			},
			want:      ErrSnapshotCorrupt,
			discarded: true,
		},
		{
			name: "in-band sequence differs from the offered seq",
			run: func(t *testing.T, conn net.Conn) {
				shipWhole(t, conn, data, snapSeq+1, snapSeq+1)
				mustReject(t, conn, "mislabelled snapshot verdict")
			},
			want:      ErrSnapshotCorrupt,
			discarded: true,
		},
		{
			name: "done names another sequence than the offer",
			run: func(t *testing.T, conn net.Conn) {
				shipWhole(t, conn, data, snapSeq, snapSeq+1)
				mustReject(t, conn, "mismatched done verdict")
			},
			want: ErrReseedAborted,
		},
		{
			name: "malformed offer payload",
			run: func(t *testing.T, conn net.Conn) {
				WriteFrame(conn, Frame{Type: FrameSnapOffer, Term: 1, Seq: snapSeq, Payload: []byte{1, 2, 3}})
				mustReject(t, conn, "offer verdict")
			},
			want: ErrBadFrame,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fl, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, dir)})
			if err != nil {
				t.Fatal(err)
			}
			feedFollower(t, fl, w, 1, 0, 2)
			before := append([]float64(nil), fl.Pipeline().Session().States()...)
			conn, done := handshake(t, fl, 1)
			tc.run(t, conn)
			conn.Close()
			if serr := <-done; !errors.Is(serr, tc.want) {
				t.Fatalf("session error = %v, want %v in chain", serr, tc.want)
			}
			// A failed transfer must never move the follower's state or
			// touch its log.
			if fl.Seq() != 2 || !statesEqual(fl.Pipeline().Session().States(), before) {
				t.Fatalf("failed transfer disturbed the follower (now at seq %d)", fl.Seq())
			}
			if start, err := wal.StartSeq(nodeConfig(w, dir).WAL); err != nil || start != 1 {
				t.Fatalf("failed transfer touched the WAL: start %d err %v", start, err)
			}
			if tc.discarded {
				for _, name := range []string{reseedPartialName, reseedMarkName} {
					if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
						t.Errorf("poisoned %s kept for resume (err %v)", name, err)
					}
				}
			}
			fl.Pipeline().Close()
		})
	}
}

// TestReseedResumesAfterSeveredTransfer: a transfer cut mid-stream
// keeps its fsynced partial and resume mark; the next offer of the
// same snapshot restarts at the acknowledged byte offset — across a
// follower process restart — and installs bit-identical state.
func TestReseedResumesAfterSeveredTransfer(t *testing.T) {
	w := testWorkload(t, 6)
	snapSeq, data, snapStates := makeSnapshot(t, w, 4)
	if len(data) < 96 {
		t.Fatalf("snapshot too small (%d bytes)", len(data))
	}
	offer := snapOffer{Total: uint64(len(data)), CRC: crc32.ChecksumIEEE(data),
		Ledger: []TermBase{{Term: 1, Base: 1}}}
	cut := uint64(64)

	dir := t.TempDir()
	fl, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, dir)})
	if err != nil {
		t.Fatal(err)
	}

	// Session 1: one chunk lands, then the primary dies.
	conn, done := handshake(t, fl, 1)
	WriteFrame(conn, Frame{Type: FrameSnapOffer, Term: 1, Seq: snapSeq, Payload: offer.encode()})
	mustAck(t, conn, 0, "fresh offer answer")
	WriteFrame(conn, Frame{Type: FrameSnapChunk, Term: 1, Seq: 0, Payload: data[:cut]})
	mustAck(t, conn, cut, "chunk 1")
	conn.Close()
	if serr := <-done; !errors.Is(serr, ErrReseedAborted) {
		t.Fatalf("severed session: want ErrReseedAborted, got %v", serr)
	}
	if st, err := os.Stat(filepath.Join(dir, reseedPartialName)); err != nil || st.Size() != int64(cut) {
		t.Fatalf("partial after sever: %v (size %v), want %d bytes", err, st, cut)
	}

	// The follower crashes and restarts: the partial and mark are
	// durable, the old pipeline state is untouched (no half-install).
	fl.Pipeline().Close()
	fl, err = NewFollower(FollowerConfig{Pipeline: nodeConfig(w, dir)})
	if err != nil {
		t.Fatalf("restart after severed transfer: %v", err)
	}
	if fl.Seq() != 0 {
		t.Fatalf("restarted follower at seq %d, want its old 0", fl.Seq())
	}

	// Session 2: the same offer resumes at the acknowledged offset.
	conn, done = handshake(t, fl, 2)
	WriteFrame(conn, Frame{Type: FrameSnapOffer, Term: 2, Seq: snapSeq, Payload: offer.encode()})
	mustAck(t, conn, cut, "resumed offer answer")
	WriteFrame(conn, Frame{Type: FrameSnapChunk, Term: 2, Seq: cut, Payload: data[cut:]})
	mustAck(t, conn, uint64(len(data)), "resumed chunk")
	WriteFrame(conn, Frame{Type: FrameSnapDone, Term: 2, Seq: snapSeq})
	mustAck(t, conn, snapSeq, "install")
	conn.Close()
	if serr := <-done; serr != nil {
		t.Fatalf("resume session: %v", serr)
	}

	if fl.Seq() != snapSeq {
		t.Fatalf("follower at seq %d after install, want %d", fl.Seq(), snapSeq)
	}
	if !statesEqual(fl.Pipeline().Session().States(), snapStates) {
		t.Fatal("installed states differ from the snapshot's")
	}
	if len(fl.state.Ledger) != 1 || fl.state.Ledger[0] != (TermBase{Term: 1, Base: 1}) {
		t.Fatalf("ledger not reset to the shipped history: %+v", fl.state.Ledger)
	}
	col := fl.Pipeline().Collector()
	if col.Get(stats.CtrReplReseedResumes) != 1 || col.Get(stats.CtrReplReseedInstalls) != 1 {
		t.Fatalf("resumes=%d installs=%d, want 1/1",
			col.Get(stats.CtrReplReseedResumes), col.Get(stats.CtrReplReseedInstalls))
	}
	// A durable install survives another restart.
	fl.Pipeline().Close()
	fl, err = NewFollower(FollowerConfig{Pipeline: nodeConfig(w, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Seq() != snapSeq || !statesEqual(fl.Pipeline().Session().States(), snapStates) {
		t.Fatal("installed snapshot did not survive a restart")
	}
	fl.Pipeline().Close()
}

// FuzzSnapFrame fuzzes the snapshot-offer codec: every input either
// decodes and re-encodes byte-identical, or fails with the typed
// *FrameError wrapping ErrBadFrame — never a panic, never a silent
// partial decode.
func FuzzSnapFrame(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(snapOffer{}.encode())
	f.Add(snapOffer{Total: 1 << 20, CRC: 0xDEADBEEF}.encode())
	f.Add(snapOffer{Total: 9, Ledger: []TermBase{{Term: 1, Base: 1}, {Term: 3, Base: 500}}}.encode())
	full := snapOffer{Total: 5, CRC: 9, Ledger: []TermBase{{Term: 2, Base: 4}}}.encode()
	f.Add(full[:11])
	f.Add(append(append([]byte(nil), full...), 0xFF))
	f.Fuzz(func(t *testing.T, payload []byte) {
		o, err := decodeSnapOffer(payload)
		if err != nil {
			var fe *FrameError
			if !errors.As(err, &fe) || !errors.Is(err, ErrBadFrame) {
				t.Fatalf("malformed offer: want *FrameError wrapping ErrBadFrame, got %v", err)
			}
			return
		}
		if re := o.encode(); !bytes.Equal(re, payload) {
			t.Fatalf("accepted offer does not re-encode byte-identical:\n in:  %x\n out: %x", payload, re)
		}
	})
}
