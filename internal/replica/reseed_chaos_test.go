package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// cutConn severs the primary→follower direction after budget bytes:
// the write fails and the underlying conn is closed, so the follower's
// pending read dies too — a primary killed mid-transfer.
type cutConn struct {
	net.Conn
	budget int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.budget < len(p) {
		c.Conn.Close()
		return 0, errors.New("cut: wire severed mid-frame")
	}
	c.budget -= len(p)
	return c.Conn.Write(p)
}

// divergedFollower builds a follower whose log is ahead of any primary
// that only holds the first five batches: it lived a full ten-batch
// life under term 1.
func divergedFollower(t *testing.T, w *stream.Workload, dir string) *Follower {
	t.Helper()
	fl, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, dir)})
	if err != nil {
		t.Fatal(err)
	}
	feedFollower(t, fl, w, 1, 0, 10)
	return fl
}

// reseedPrimary builds a five-batch checkpointed history and returns a
// primary constructor over it: mk(term) claims the term durably and
// returns a Primary serving that history at it. Trials use mk(2) for
// the first session and mk(3) for the retry — a failed session already
// made the follower adopt term 2, and terms are single-use by design,
// so the retry must claim fresh authority exactly as a restarted
// primary process would. Any ten-batch follower diverges from it.
func reseedPrimary(t *testing.T, w *stream.Workload, chunk int) (func(term uint64) *Primary, survivor, *stats.Collector) {
	t.Helper()
	pdir := t.TempDir()
	col := stats.NewCollector()
	pcfg := nodeConfig(w, pdir)
	pcfg.Collector = col
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range w.Batches[:5] {
		if err := pipe.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(term uint64) *Primary {
		if _, err := ClaimTerm(wal.Options{Dir: pdir}, term); err != nil {
			t.Fatal(err)
		}
		return NewPrimary(PrimaryConfig{
			Term: term, ClusterSize: 2, WAL: pcfg.WAL, Collector: col,
			Snapshots: pipe.SnapshotSource(), SnapChunkBytes: chunk,
		})
	}
	return mk, survivor{name: "primary", wal: pcfg.WAL, pipe: pipe}, col
}

// runKillPrimaryMidTransferTrial severs the snapshot wire after a
// seeded byte budget, proving the half-transfer invariants — the
// follower keeps its old state (no usable half-install, even across a
// restart), the fsynced partial survives — then reconnects and finishes
// via resume.
func runKillPrimaryMidTransferTrial(t *testing.T, trial int) digest {
	rng := rand.New(rand.NewSource(int64(7000 + trial)))
	w := testWorkload(t, 10)
	const chunk = 64

	adir := t.TempDir()
	fa := divergedFollower(t, w, adir)
	mkPrim, primary, col := reseedPrimary(t, w, chunk)
	pipe := primary.pipe
	prim := mkPrim(2)

	// Sever inside the chunk stream: past the offer frame (frameHdrSize
	// plus its payload is comfortably under 200 bytes) but before the
	// transfer can complete.
	budget := 230 + chunk*int(rng.Int63n(3))
	pside, fside := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- fa.Serve(fside) }()
	err := prim.AddFollower(&cutConn{Conn: pside, budget: budget})
	if !errors.Is(err, ErrFollowerDiverged) || !errors.Is(err, ErrReseedAborted) {
		t.Fatalf("severed reseed: want ErrFollowerDiverged+ErrReseedAborted, got %v", err)
	}
	if serr := <-done; !errors.Is(serr, ErrReseedAborted) {
		t.Fatalf("severed follower session: want ErrReseedAborted, got %v", serr)
	}
	if prim.HasLive("follower-0") {
		t.Fatal("half-reseeded follower was attached")
	}

	// The follower restarts: its old durable state is intact — nothing
	// half-installed — and the partial transfer survived the crash.
	fa.Pipeline().Close()
	fa, err = NewFollower(FollowerConfig{Pipeline: nodeConfig(w, adir)})
	if err != nil {
		t.Fatalf("restart after severed transfer: %v", err)
	}
	if fa.Seq() != 10 {
		t.Fatalf("restarted follower at seq %d, want its old 10", fa.Seq())
	}
	resumedAt := uint64(0)
	if st, err := os.Stat(filepath.Join(adir, reseedPartialName)); err == nil {
		resumedAt = uint64(st.Size())
	}

	// Reconnect: the follower durably adopted term 2 during the severed
	// session and refuses repeats of it, so the retry claims term 3 —
	// the same fresh-authority step a restarted primary process takes.
	// Still diverged, it is reseeded again — resuming from the fsynced
	// offset when any chunk landed — then served to the end.
	prim.Close()
	prim = mkPrim(3)
	na := attach(t, prim, fa, nil)
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

	if resumedAt > 0 && col.Get(stats.CtrReplReseedResumes) != 1 {
		t.Fatalf("partial of %d bytes existed but resumes = %d", resumedAt, col.Get(stats.CtrReplReseedResumes))
	}
	pinned := pin(col, stats.CtrReplReseedOffers, stats.CtrReplReseedResumes, stats.CtrReplReseedAborts)
	pinned["resumedAt"] = resumedAt
	dig := oracle(t, ending{w: w, acked: uint64(len(w.Batches)), finished: true,
		members: []survivor{followerOf("follower", fa), primary}, pinned: pinned})
	fa.Pipeline().Close()
	return dig
}

// TestChaosReseedKillPrimaryMidTransfer: seeded kill-the-primary
// trials at different points of the chunk stream.
func TestChaosReseedKillPrimaryMidTransfer(t *testing.T) {
	trials(t, 3, runKillPrimaryMidTransferTrial)
}

// runKillFollowerMidInstallTrial crashes the *follower* (CrashFS fuse
// on its own disk) partway through receiving and installing the
// snapshot — during the mark write, the partial's chunk fsyncs, or the
// post-install ledger write, depending on the seeded fuse. The restart
// must recover cleanly to either the old state (re-reseeded, resuming
// the partial) or the fully installed snapshot (caught up normally) —
// never anything in between — and converge to the reference.
func runKillFollowerMidInstallTrial(t *testing.T, trial int) digest {
	rng := rand.New(rand.NewSource(int64(8000 + trial)))
	w := testWorkload(t, 10)

	adir := t.TempDir()
	crashFS := fault.NewCrashFS()
	acfg := nodeConfig(w, adir)
	acfg.WAL.FS = crashFS
	fa, err := NewFollower(FollowerConfig{Pipeline: acfg})
	if err != nil {
		t.Fatal(err)
	}
	feedFollower(t, fa, w, 1, 0, 10)

	mkPrim, primary, col := reseedPrimary(t, w, 64)
	pipe := primary.pipe
	prim := mkPrim(2)

	// Arm the fuse: sync 0 is the resume mark, 1 the fresh partial,
	// then one per 64-byte chunk; large values land in the ledger
	// rewrite after the install.
	crashFS.ArmCrashAtSync(int(rng.Int63n(6)))
	pside, fside := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(fault.CrashSignal); !ok {
					panic(r)
				}
				// The process died: its half of the wire dies with it, so
				// the primary sees the failure now, not at its ack timeout.
				fside.Close()
				done <- fmt.Errorf("follower crashed mid-install")
			}
		}()
		done <- fa.Serve(fside)
	}()
	if err := prim.AddFollower(pside); err == nil {
		t.Fatal("AddFollower succeeded through a crashing follower")
	} else if !errors.Is(err, ErrFollowerDiverged) {
		t.Fatalf("crashing reseed: want ErrFollowerDiverged in chain, got %v", err)
	}
	<-done
	// The machine dies: unsynced page cache is lost with it.
	if err := crashFS.LoseUnsynced(rng); err != nil {
		t.Fatal(err)
	}

	// Restart on a healthy disk. Recovery must land on a consistent
	// state: the old log (crash before the install completed) or the
	// installed snapshot (crash after) — either rejoins cleanly.
	fa, err = NewFollower(FollowerConfig{Pipeline: nodeConfig(w, adir)})
	if err != nil {
		t.Fatalf("restart after mid-install crash: %v", err)
	}
	if got := fa.Seq(); got != 10 && got != 3 {
		t.Fatalf("restarted follower at seq %d, want the old 10 or the installed 3", got)
	}

	// Terms are single-use: the crashed session already adopted term 2
	// on the follower, so the retry claims 3 as a restarted primary would.
	prim.Close()
	prim = mkPrim(3)
	na := attach(t, prim, fa, nil)
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
		t.Fatalf("follower session after crash recovery: %v", err)
	}

	dig := oracle(t, ending{w: w, acked: uint64(len(w.Batches)), finished: true,
		members: []survivor{followerOf("follower", fa), primary},
		pinned:  pin(col, stats.CtrReplReseedOffers, stats.CtrReplReseedResumes, stats.CtrReplReseedAborts)})
	fa.Pipeline().Close()
	return dig
}

// TestChaosReseedKillFollowerMidInstall: seeded kill-the-follower
// trials with the crash fuse landing across the install sequence.
func TestChaosReseedKillFollowerMidInstall(t *testing.T) {
	trials(t, 3, runKillFollowerMidInstallTrial)
}

// runRetentionAdvanceTrial is the whole PR in one scenario: a primary
// with an in-step follower keeps checkpointing, and replication-aware
// retention deletes WAL segments past the shipped checkpoints (the log
// is NOT pinned to history forever); a late joiner that needs the
// deleted records is reseeded from a checkpoint and catches the live
// tail; everyone ends bit-identical to the reference.
func runRetentionAdvanceTrial(t *testing.T) digest {
	w := testWorkload(t, 12)

	pdir := t.TempDir()
	col := stats.NewCollector()
	pcfg := nodeConfig(w, pdir)
	pcfg.Collector = col
	pcfg.WAL.SegmentBytes = 512
	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 1); err != nil {
		t.Fatal(err)
	}

	f1, c1, d1 := startFollower(t, w, t.TempDir())
	prim := NewPrimary(PrimaryConfig{
		Term: 1, ClusterSize: 2, WAL: pcfg.WAL, Collector: col,
		SnapChunkBytes: 128,
	})
	if err := prim.AddFollower(c1); err != nil {
		t.Fatal(err)
	}
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.SetRetentionAdvisor(prim)
	// The snapshot source must exist before retention can strand anyone.
	prim.cfg.Snapshots = pipe.SnapshotSource()

	for _, b := range w.Batches[:10] {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatal(err)
		}
	}
	// Retention must have advanced past shipped checkpoints — segments
	// actually deleted — while the live follower kept up.
	start, err := wal.StartSeq(pcfg.WAL)
	if err != nil {
		t.Fatal(err)
	}
	if start <= 1 {
		t.Fatalf("retention never advanced under a live follower (StartSeq %d)", start)
	}
	if col.Get(stats.CtrWALRetained) == 0 {
		t.Fatal("no WAL segments were removed despite advancing checkpoints")
	}
	if f1.Seq() != 10 {
		t.Fatalf("live follower fell behind at seq %d", f1.Seq())
	}

	// A late joiner needs seq 1; the log now starts past it: reseed.
	f2, c2, d2 := startFollower(t, w, t.TempDir())
	if err := prim.AddFollower(c2); err != nil {
		t.Fatalf("late joiner past retention: %v", err)
	}
	for _, b := range w.Batches[10:] {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	prim.Close()
	if err := <-d1; err != nil {
		t.Fatalf("follower 1 session: %v", err)
	}
	if err := <-d2; err != nil {
		t.Fatalf("follower 2 session: %v", err)
	}

	if col.Get(stats.CtrReplReseedOffers) != 1 || col.Get(stats.CtrReplReseedAborts) != 0 {
		t.Fatalf("offers=%d aborts=%d, want 1/0",
			col.Get(stats.CtrReplReseedOffers), col.Get(stats.CtrReplReseedAborts))
	}
	if f2.Pipeline().Collector().Get(stats.CtrReplReseedInstalls) != 1 {
		t.Fatal("late joiner never installed a snapshot")
	}

	pinned := pin(col, stats.CtrWALRetained, stats.CtrReplReseedOffers)
	pinned["startSeq"] = start
	dig := oracle(t, ending{w: w, acked: uint64(len(w.Batches)), finished: true,
		members: []survivor{followerOf("follower1", f1), followerOf("follower2", f2), {name: "primary", wal: pcfg.WAL, pipe: pipe}},
		pinned:  pinned})
	f1.Pipeline().Close()
	f2.Pipeline().Close()
	return dig
}

// TestChaosReseedRetentionAdvances: replication-aware compaction plus
// automatic reseed, end to end.
func TestChaosReseedRetentionAdvances(t *testing.T) {
	twice(t, runRetentionAdvanceTrial)
}
