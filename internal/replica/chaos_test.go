package replica

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"testing"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// trialDigest captures everything a failover trial decided, so running
// the same seed twice must reproduce it bit for bit.
type trialDigest struct {
	acked     int
	winner    int
	crashed   bool
	stateHash uint64
}

func hashStates(states []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, s := range states {
		h ^= math.Float64bits(s)
		h *= 1099511628211
	}
	return h
}

// followerNode is one follower plus its live replication session.
type followerNode struct {
	f    *Follower
	done chan error
}

func attach(t *testing.T, prim *Primary, f *Follower, wrap func(net.Conn) net.Conn) *followerNode {
	t.Helper()
	pside, fside := net.Pipe()
	node := &followerNode{f: f, done: make(chan error, 1)}
	go func() { node.done <- f.Serve(fside) }()
	conn := net.Conn(pside)
	if wrap != nil {
		conn = wrap(conn)
	}
	if err := prim.AddFollower(conn); err != nil {
		t.Fatalf("AddFollower: %v", err)
	}
	return node
}

// runFailoverTrial kills the primary at a seeded point — mid-WAL-write,
// mid-fsync, or right after a record is torn mid-frame on a follower's
// wire — promotes the most-advanced follower, re-feeds the unacked
// tail through it, and checks the invariants:
//
//   - zero acknowledged-batch loss: the promoted follower's sequence
//     covers every batch Ingest acknowledged;
//   - convergence: after re-feeding, the promoted primary and the
//     re-attached follower both hold states Float64bits-identical to an
//     uninterrupted run.
func runFailoverTrial(t *testing.T, trial int) trialDigest {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(2000 + trial)))
	w := testWorkload(t, 10)
	want := referenceStates(t, w)

	// Primary: WAL on a crash-simulating filesystem; checkpoints on so
	// the sync-fuse mode can also die inside a checkpoint barrier.
	crashFS := fault.NewCrashFS()
	pdir := t.TempDir()
	pcfg := nodeConfig(w, pdir)
	pcfg.WAL.FS = crashFS
	pcfg.WAL.SegmentBytes = 1024
	pcfg.Collector = stats.NewCollector()

	// Followers: plain disks, full WAL retention so either can feed the
	// other's catch-up after the failover.
	mkFollower := func(dir string) *Follower {
		cfg := nodeConfig(w, dir)
		cfg.CheckpointEvery = -1
		fl, err := NewFollower(FollowerConfig{Pipeline: cfg})
		if err != nil {
			t.Fatalf("NewFollower: %v", err)
		}
		return fl
	}
	f1 := mkFollower(t.TempDir())
	f2 := mkFollower(t.TempDir())

	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 1); err != nil {
		t.Fatal(err)
	}
	prim := NewPrimary(PrimaryConfig{Term: 1, ClusterSize: 3, WAL: pcfg.WAL, Collector: pcfg.Collector})

	// Fault plan, all positions drawn from the trial seed.
	mode := trial % 3
	var wrapF2 func(net.Conn) net.Conn
	switch mode {
	case 0:
		// Die mid-write: a WAL record tears on the platter.
		crashFS.ArmCrash(rng.Int63n(2000))
	case 1:
		// Die mid-fsync: the barrier call never returns.
		crashFS.ArmCrashAtSync(rng.Intn(8))
	case 2:
		// First a record is torn mid-frame on follower 2's wire (the
		// connection dies under the primary, quorum holds 2-of-3), then
		// the primary dies mid-write.
		inj := fault.New(int64(3000 + trial))
		inj.Arm(fault.NetTrunc, float64(40+rng.Int63n(1500)))
		wrapF2 = inj.Conn
		crashFS.ArmCrash(500 + rng.Int63n(1500))
	}

	n1 := attach(t, prim, f1, nil)
	n2 := attach(t, prim, f2, wrapF2)

	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.SetRetentionAdvisor(prim)

	acked := 0
	crashed := false
	func() {
		defer func() {
			switch r := recover().(type) {
			case nil:
			case fault.CrashSignal:
				crashed = true
			default:
				panic(r)
			}
		}()
		for _, b := range w.Batches {
			if err := ingest(prim, pipe, b); err != nil {
				t.Errorf("trial %d: ingest failed without crashing: %v", trial, err)
				return
			}
			acked++
		}
	}()
	if t.Failed() {
		t.FailNow()
	}
	if crashed {
		// The page cache dies with the process.
		if err := crashFS.LoseUnsynced(rng); err != nil {
			t.Fatal(err)
		}
	}
	// The primary is gone; its sessions collapse.
	prim.Close()
	<-n1.done
	<-n2.done

	// Failover: promote the most-advanced follower.
	winner, other, winnerIdx := f1, f2, 0
	if f2.Seq() > f1.Seq() {
		winner, other, winnerIdx = f2, f1, 1
	}
	if int(winner.Seq()) < acked {
		t.Fatalf("trial %d (mode %d): acknowledged-batch loss: %d batches acked, best follower holds %d",
			trial, mode, acked, winner.Seq())
	}
	newTerm, err := winner.PromoteTo(winner.Term() + 1)
	if err != nil {
		t.Fatal(err)
	}
	if newTerm != 2 {
		t.Fatalf("promotion produced term %d, want 2", newTerm)
	}

	// The promoted follower serves: attach the survivor (it catches up
	// from the new primary's WAL) and re-feed everything past the new
	// primary's log — acked batches are already in it, so nothing is
	// applied twice and nothing acked is lost.
	newPrim := NewPrimary(PrimaryConfig{
		Term: newTerm, ClusterSize: 3,
		WAL:       winner.cfg.Pipeline.WAL,
		Collector: winner.Pipeline().Collector(),
	})
	no := attach(t, newPrim, other, nil)
	winner.Pipeline().SetRetentionAdvisor(newPrim)
	for _, b := range w.Batches[winner.Seq():] {
		if err := ingest(newPrim, winner.Pipeline(), b); err != nil {
			t.Fatalf("trial %d: re-feed ingest: %v", trial, err)
		}
	}
	newPrim.Close()
	<-no.done

	if got := winner.Seq(); got != uint64(len(w.Batches)) {
		t.Fatalf("promoted primary finished at seq %d, want %d", got, len(w.Batches))
	}
	if other.Seq() != winner.Seq() {
		t.Fatalf("surviving follower at seq %d, promoted at %d", other.Seq(), winner.Seq())
	}
	if !statesEqual(winner.Pipeline().Session().States(), want) {
		t.Fatalf("trial %d (mode %d): promoted primary states diverged from uninterrupted run", trial, mode)
	}
	if !statesEqual(other.Pipeline().Session().States(), want) {
		t.Fatalf("trial %d (mode %d): surviving follower states diverged from uninterrupted run", trial, mode)
	}

	dig := trialDigest{
		acked:     acked,
		winner:    winnerIdx,
		crashed:   crashed,
		stateHash: hashStates(winner.Pipeline().Session().States()),
	}
	winner.Pipeline().Close()
	other.Pipeline().Close()
	return dig
}

// TestChaosKillPrimaryFailover: twelve seeded kill-the-primary trials
// across three death modes (mid-WAL-write, mid-fsync, record torn on
// the wire then crash). Every trial must end with a promoted follower
// holding all acknowledged batches and byte-identical states, and each
// trial's outcome must reproduce exactly when its seed is replayed.
func TestChaosKillPrimaryFailover(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			first := runFailoverTrial(t, trial)
			if !first.crashed && trial%3 != 1 {
				t.Errorf("trial %d: crash never fired (fuse past the workload?)", trial)
			}
			second := runFailoverTrial(t, trial)
			if first != second {
				t.Fatalf("trial %d not deterministic: %+v vs %+v", trial, first, second)
			}
		})
	}
}

// TestFencedOldPrimaryRejected: after a failover, a deposed primary
// that reconnects is refused with ErrStaleTerm (wrapping
// serve.ErrFenced) at the handshake, and a stale-term record arriving
// mid-session is refused without being applied — the old primary can
// neither double-apply nor acknowledge anything.
func TestFencedOldPrimaryRejected(t *testing.T) {
	w := testWorkload(t, 6)

	fcfg := nodeConfig(w, t.TempDir())
	fcfg.CheckpointEvery = -1
	fl, err := NewFollower(FollowerConfig{Pipeline: fcfg})
	if err != nil {
		t.Fatal(err)
	}

	// Session 1: the original primary (term 1) replicates three batches.
	pdir := t.TempDir()
	pcfg := nodeConfig(w, pdir)
	if _, err := ClaimTerm(wal.Options{Dir: pdir}, 1); err != nil {
		t.Fatal(err)
	}
	oldPrim := NewPrimary(PrimaryConfig{Term: 1, ClusterSize: 2, WAL: pcfg.WAL})
	n1 := &followerNode{f: fl, done: make(chan error, 1)}
	pside, fside := net.Pipe()
	go func() { n1.done <- fl.Serve(fside) }()
	if err := oldPrim.AddFollower(pside); err != nil {
		t.Fatal(err)
	}
	pipe, err := serve.NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe.SetRetentionAdvisor(oldPrim)
	for _, b := range w.Batches[:3] {
		if err := ingest(oldPrim, pipe, b); err != nil {
			t.Fatal(err)
		}
	}
	oldPrim.Close()
	<-n1.done

	// Failover: the follower is promoted to term 2.
	if _, err := fl.PromoteTo(fl.Term() + 1); err != nil {
		t.Fatal(err)
	}
	seqBefore := fl.Seq()
	statesBefore := append([]float64(nil), fl.Pipeline().Session().States()...)
	fencesBefore := fl.Pipeline().Collector().Get(stats.CtrReplFenceRejects)

	// The deposed primary reconnects: rejected at the handshake with the
	// typed fencing error.
	pside2, fside2 := net.Pipe()
	sess := make(chan error, 1)
	go func() { sess <- fl.Serve(fside2) }()
	err = oldPrim2(t, pdir, pcfg).AddFollower(pside2)
	if !errors.Is(err, ErrStaleTerm) || !errors.Is(err, serve.ErrFenced) {
		t.Fatalf("reconnect: want ErrStaleTerm wrapping serve.ErrFenced, got %v", err)
	}
	if serr := <-sess; !errors.Is(serr, ErrStaleTerm) {
		t.Fatalf("follower session: want ErrStaleTerm, got %v", serr)
	}

	// Equal-term split brain: a second process that claims the *same*
	// term the promoted follower already holds (a deposed primary whose
	// own stored term plus one collides with the promotion) is rejected
	// too — sessions must claim strictly more than the follower has
	// adopted, so no two primaries can ever be acked under one term.
	psideEq, fsideEq := net.Pipe()
	sessEq := make(chan error, 1)
	go func() { sessEq <- fl.Serve(fsideEq) }()
	eqPrim := NewPrimary(PrimaryConfig{Term: fl.Term(), ClusterSize: 2, WAL: pcfg.WAL})
	err = eqPrim.AddFollower(psideEq)
	if !errors.Is(err, ErrStaleTerm) || !errors.Is(err, serve.ErrFenced) {
		t.Fatalf("equal-term primary: want ErrStaleTerm wrapping serve.ErrFenced, got %v", err)
	}
	if serr := <-sessEq; !errors.Is(serr, ErrStaleTerm) {
		t.Fatalf("equal-term session: want ErrStaleTerm, got %v", serr)
	}

	// A split-brain primary that already held a session cannot slip a
	// stale-term record through mid-stream either.
	pside3, fside3 := net.Pipe()
	sess3 := make(chan error, 1)
	go func() { sess3 <- fl.Serve(fside3) }()
	if err := WriteFrame(pside3, Frame{Type: FrameHello, Term: 3}); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(pside3); err != nil || f.Type != FrameWelcome {
		t.Fatalf("welcome: %+v, %v", f, err)
	}
	payload := wal.EncodeBatch(w.Batches[3])
	if err := WriteFrame(pside3, Frame{Type: FrameRecord, Term: 1, Seq: seqBefore + 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	rej, err := ReadFrame(pside3)
	if err != nil || rej.Type != FrameReject || rej.Term != 3 {
		t.Fatalf("stale record answer: %+v, %v (want Reject at term 3)", rej, err)
	}
	if serr := <-sess3; !errors.Is(serr, ErrStaleTerm) {
		t.Fatalf("stale-record session: want ErrStaleTerm, got %v", serr)
	}

	// Nothing the deposed primary sent was applied or acknowledged.
	if fl.Seq() != seqBefore {
		t.Fatalf("follower advanced to seq %d under a fenced primary", fl.Seq())
	}
	if !statesEqual(fl.Pipeline().Session().States(), statesBefore) {
		t.Fatal("follower states changed under a fenced primary")
	}
	if got := fl.Pipeline().Collector().Get(stats.CtrReplFenceRejects); got != fencesBefore+3 {
		t.Fatalf("fence rejections = %d, want %d", got, fencesBefore+3)
	}
	pipe.Close()
	fl.Pipeline().Close()
}

// oldPrim2 rebuilds the deposed primary the way a restarted process
// would: from its own durable term, which is still the old one.
func oldPrim2(t *testing.T, pdir string, pcfg serve.PipelineConfig) *Primary {
	t.Helper()
	st, err := LoadTermState(wal.OSFS{}, pdir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Term != 1 {
		t.Fatalf("deposed primary restarted with term %d, want its stored 1", st.Term)
	}
	return NewPrimary(PrimaryConfig{Term: st.Term, ClusterSize: 2, WAL: pcfg.WAL})
}
