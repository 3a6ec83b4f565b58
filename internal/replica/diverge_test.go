package replica

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// TestDivergedFollowerRejected is the regression for silent log
// divergence: a replica holding an unacknowledged tail the promoted
// log never had (the classic deposed-primary-restarted-as-follower
// shape) must be refused at the handshake with ErrFollowerDiverged —
// on both detection paths: its seq is ahead of the new primary's log
// end, and, once the new primary has written past that seq, its tail
// stamp names an origin term the primary's ledger contradicts. It must
// never be attached or counted toward quorum, and must itself learn it
// was refused. A reseeded replica in its place attaches fine.
func TestDivergedFollowerRejected(t *testing.T) {
	w := testWorkload(t, 8)

	pdir := t.TempDir()
	pcfg := nodeConfig(w, pdir)
	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 1); err != nil {
		t.Fatal(err)
	}
	prim := NewPrimary(PrimaryConfig{Term: 1, ClusterSize: 3, WAL: pcfg.WAL})

	mk := func(dir string) *Follower {
		cfg := nodeConfig(w, dir)
		cfg.CheckpointEvery = -1
		fl, err := NewFollower(FollowerConfig{Pipeline: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	fa := mk(t.TempDir())
	fb := mk(t.TempDir())
	na := attach(t, prim, fa, nil)
	// B attaches by hand so the test holds its primary-side conn and
	// can sever it mid-stream.
	psideB, fsideB := net.Pipe()
	nbDone := make(chan error, 1)
	go func() { nbDone <- fb.Serve(fsideB) }()
	if err := prim.AddFollower(psideB); err != nil {
		t.Fatal(err)
	}

	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.SetRetentionAdvisor(prim)
	// Two batches reach everyone; then B's transport dies and batch 3
	// lands only on the primary and A (still quorum, 2 of 3). A now
	// holds a seq-3 record B never saw.
	for _, b := range w.Batches[:2] {
		if err := ingest(prim, pipe, b); err != nil {
			t.Fatal(err)
		}
	}
	psideB.Close()
	<-nbDone
	if err := ingest(prim, pipe, w.Batches[2]); err != nil {
		t.Fatal(err)
	}
	pipe.Close()
	prim.Close()
	<-na.done

	// The primary's machine is lost, and failover promotes B — NOT the
	// most-advanced follower, which is exactly the mistake (or the
	// deposed-primary WAL-replay resurrection it models) divergence
	// detection must catch: A's seq-3 record is w.Batches[2], but the
	// promoted log's seq 3 will be w.Batches[3].
	newTerm, err := fb.PromoteTo(fb.Term() + 1)
	if err != nil {
		t.Fatal(err)
	}
	if newTerm != 2 {
		t.Fatalf("promoted to term %d, want 2", newTerm)
	}

	col := stats.NewCollector()
	np := NewPrimary(PrimaryConfig{
		Term: newTerm, ClusterSize: 3, Quorum: 1,
		WAL:       fb.cfg.Pipeline.WAL,
		Collector: col,
	})

	// Path 1 — ahead of the promoted log end (B is at seq 2, A at 3).
	psideA, fsideA := net.Pipe()
	sessA := make(chan error, 1)
	go func() { sessA <- fa.Serve(fsideA) }()
	err = np.AddFollower(psideA)
	if !errors.Is(err, ErrFollowerDiverged) {
		t.Fatalf("ahead rejoin: want ErrFollowerDiverged, got %v", err)
	}
	if serr := <-sessA; !errors.Is(serr, ErrFollowerDiverged) {
		t.Fatalf("ahead rejoin follower session: want ErrFollowerDiverged, got %v", serr)
	}
	psideA.Close()
	if np.HasLive("follower-0") {
		t.Fatal("diverged follower was attached")
	}

	// The promoted primary serves on alone: its seq 3 and 4 are new
	// records created under term 2.
	for _, b := range w.Batches[3:5] {
		if err := fb.Pipeline().Ingest(b); err != nil {
			t.Fatal(err)
		}
	}

	// Path 2 — the next generation (probe max + 1 = term 3) has written
	// past A's seq, so the tail stamp is what convicts A now: its seq-3
	// record originates at term 1, the promoted ledger says seq 3 is
	// term 2's. First check the probe itself: state, and no adoption.
	psideP, fsideP := net.Pipe()
	probeDone := make(chan error, 1)
	go func() { probeDone <- fa.Serve(fsideP) }()
	probed, err := Probe(psideP, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	probedTerm, probedSeq := probed.Term, probed.Seq
	if probedTerm != 2 || probedSeq != 3 {
		t.Fatalf("probe = term %d seq %d, want term 2 seq 3", probedTerm, probedSeq)
	}
	// End the probe session before touching fa again: Serve holds the
	// follower's lock until its conn dies.
	psideP.Close()
	<-probeDone
	if fa.Term() != 2 {
		t.Fatalf("probe adopted a term: follower at %d, want 2", fa.Term())
	}

	if _, err := ClaimTerm(fb.cfg.Pipeline.WAL, probedTerm+1); err != nil {
		t.Fatal(err)
	}
	np2 := NewPrimary(PrimaryConfig{
		Term: probedTerm + 1, ClusterSize: 3, Quorum: 1,
		WAL:       fb.cfg.Pipeline.WAL,
		Collector: col,
	})
	psideA2, fsideA2 := net.Pipe()
	sessA2 := make(chan error, 1)
	go func() { sessA2 <- fa.Serve(fsideA2) }()
	err = np2.AddFollower(psideA2)
	if !errors.Is(err, ErrFollowerDiverged) {
		t.Fatalf("stamp-conflict rejoin: want ErrFollowerDiverged, got %v", err)
	}
	if serr := <-sessA2; !errors.Is(serr, ErrFollowerDiverged) {
		t.Fatalf("stamp-conflict follower session: want ErrFollowerDiverged, got %v", serr)
	}
	psideA2.Close()
	if got := col.Get(stats.CtrReplDivergedRejects); got != 2 {
		t.Fatalf("diverged-reject counter = %d, want 2", got)
	}

	// A reseeded (empty) replica in A's place attaches fine and catches
	// up across all three origin terms of the promoted history.
	fc := mk(t.TempDir())
	nc := attach(t, np2, fc, nil)
	fb.Pipeline().SetRetentionAdvisor(np2)
	if err := ingest(np2, fb.Pipeline(), w.Batches[5]); err != nil {
		t.Fatal(err)
	}
	np2.Close()
	<-nc.done
	if fc.Seq() != fb.Seq() {
		t.Fatalf("reseeded follower at seq %d, promoted log at %d", fc.Seq(), fb.Seq())
	}
	if !statesEqual(fc.Pipeline().Session().States(), fb.Pipeline().Session().States()) {
		t.Fatal("reseeded follower states diverged from the promoted log")
	}

	fa.Pipeline().Close()
	fb.Pipeline().Close()
	fc.Pipeline().Close()
	np.Close()
}

// TestStalledFollowerDropped: a follower that stays connected but
// stops draining its socket must not block Replicate past the ack
// timeout — the primary's writes carry the same deadline its reads do,
// and a timed-out write drops the follower like a missed ack would.
func TestStalledFollowerDropped(t *testing.T) {
	w := testWorkload(t, 2)
	pcfg := nodeConfig(w, t.TempDir())

	pside, fside := net.Pipe()
	// Handshake by hand, then never touch the conn again: net.Pipe is
	// unbuffered, so every later write into it blocks until read —
	// forever, without a write deadline.
	go func() {
		if f, err := ReadFrame(fside); err != nil || f.Type != FrameHello {
			return
		}
		WriteFrame(fside, Frame{Type: FrameWelcome, Term: 1, Seq: 0})
	}()

	prim := NewPrimary(PrimaryConfig{
		Term: 1, ClusterSize: 1, Quorum: 1,
		WAL:        pcfg.WAL,
		AckTimeout: 150 * time.Millisecond,
	})
	if err := prim.AddFollower(pside); err != nil {
		t.Fatalf("AddFollower: %v", err)
	}

	start := time.Now()
	if err := prim.Replicate(1, w.Batches[0]); err != nil {
		t.Fatalf("Replicate with quorum 1: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Replicate blocked %s on a stalled follower", elapsed)
	}
	if prim.HasLive("follower-0") {
		t.Fatal("stalled follower still attached")
	}
	prim.Close()
}

// errFS fails every Open with a non-not-exist error, simulating a
// transiently erroring disk.
type errFS struct {
	wal.OSFS
	err error
}

func (e errFS) Open(string) (io.ReadCloser, error) { return nil, e.err }

// TestTermStateDurability pins the term-state file contract: ledger
// round trip, At semantics, Stamp superseding a crashed claim, and —
// the regression — that a disk failing with real I/O errors surfaces
// them instead of forging the zero term (which would un-fence a
// deposed primary), while genuinely absent state still loads as zero.
func TestTermStateDurability(t *testing.T) {
	dir := t.TempDir()
	fs := wal.OSFS{}

	want := TermState{Term: 7, Ledger: []TermBase{{Term: 2, Base: 1}, {Term: 7, Base: 40}}}
	if err := SaveTermState(fs, dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTermState(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Term != 7 || len(got.Ledger) != 2 || got.Ledger[1] != (TermBase{Term: 7, Base: 40}) {
		t.Fatalf("round trip: %+v", got)
	}
	for seq, wantTerm := range map[uint64]uint64{0: 0, 1: 2, 39: 2, 40: 7, 1000: 7} {
		if at := got.At(seq); at != wantTerm {
			t.Errorf("At(%d) = %d, want %d", seq, at, wantTerm)
		}
	}

	// Missing slots are a legitimate zero state.
	if s, err := LoadTermState(fs, t.TempDir()); err != nil || s.Term != 0 {
		t.Fatalf("empty dir: state %+v, err %v", s, err)
	}

	// A disk that errors on open must not report term 0 as truth.
	boom := errors.New("transient disk error")
	if _, err := LoadTermState(errFS{err: boom}, dir); !errors.Is(err, boom) {
		t.Fatalf("erroring disk: want the I/O error surfaced, got %v", err)
	}

	// Stamp supersedes a crashed claim at the same base instead of
	// stacking entries: term 2 claimed base 5 but never wrote a record,
	// so term 3's claim at the same base replaces it.
	s := TermState{Term: 3, Ledger: []TermBase{{Term: 1, Base: 1}}}
	s.Stamp(2, 5)
	s.Stamp(3, 5)
	if len(s.Ledger) != 2 || s.Ledger[1] != (TermBase{Term: 3, Base: 5}) {
		t.Fatalf("Stamp supersede: %+v", s.Ledger)
	}

	// ClaimTerm refuses to move backwards or sideways.
	if _, err := ClaimTerm(wal.Options{Dir: dir}, 7); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("re-claiming an adopted term: want ErrStaleTerm, got %v", err)
	}
	if _, err := ClaimTerm(wal.Options{Dir: dir}, 8); err != nil {
		t.Fatalf("claiming term 8: %v", err)
	}
}
