package replica

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// manualClock is a waiter-aware fake clock: Sleep blocks on a condition
// variable until Advance moves the hand past the wake time, so timer
// tests run with no real sleeps at all. Its epoch sits far in the real
// future, which keeps net.Conn deadlines derived from it (net.Pipe
// compares them against the real wall clock) from ever firing.
type manualClock struct {
	mu        sync.Mutex
	cond      *sync.Cond
	now       time.Time
	deadlines []time.Time // wake times of currently parked sleepers
	// settle barriers run before step moves the hand: a leader's attach
	// round runs off its role loop, so the loop parks in Sleep while the
	// round is mid-handshake — work that takes no fake time, and that the
	// hand must therefore not move under.
	settle []func()
	// loops is how many role loops step waits to see parked before it
	// moves the hand (0: any one sleeper will do). With several members
	// running, one loop can be mid-election — probing, fsyncing its term —
	// while the others sleep, and that work takes no fake time either.
	// Set by the driving goroutine before it steps, or kept by actors.
	loops int
}

func newManualClock() *manualClock {
	c := &manualClock{now: time.Unix(1<<41, 0)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	deadline := c.now.Add(d)
	c.deadlines = append(c.deadlines, deadline)
	c.cond.Broadcast()
	stop := context.AfterFunc(ctx, c.cond.Broadcast)
	defer stop()
	for c.now.Before(deadline) && ctx.Err() == nil {
		c.cond.Wait()
	}
	for i, dl := range c.deadlines {
		if dl.Equal(deadline) {
			c.deadlines = append(c.deadlines[:i], c.deadlines[i+1:]...)
			break
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	return ctx.Err()
}

// Advance moves the hand and wakes every sleeper due by the new time.
func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// awaitPendingSleeper blocks (on the condition variable, never real
// time) until some goroutine is parked in Sleep with a wake time still
// ahead of the hand — i.e. the state machine has finished reacting to
// every instant already released and is genuinely waiting for time.
func (c *manualClock) awaitPendingSleeper() {
	c.mu.Lock()
	for parked, _ := c.pendingLocked(); parked == 0; parked, _ = c.pendingLocked() {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// pendingLocked counts the sleepers whose wake time is still ahead of the
// hand and returns the earliest of those wake times.
func (c *manualClock) pendingLocked() (parked int, next time.Time) {
	for _, dl := range c.deadlines {
		if dl.After(c.now) {
			parked++
			if next.IsZero() || dl.Before(next) {
				next = dl
			}
		}
	}
	return parked, next
}

// parkedLocked reports whether enough sleepers are pending for the hand
// to move: loops of them when set, any one otherwise.
func (c *manualClock) parkedLocked() (bool, time.Time) {
	parked, next := c.pendingLocked()
	return parked > 0 && parked >= c.loops, next
}

// step waits for a pending sleeper (for loops of them, when set) and
// then jumps the hand exactly to the earliest pending wake time — one
// timer firing, no real sleeps.
func (c *manualClock) step() {
	for _, wait := range c.settle {
		wait()
	}
	c.mu.Lock()
	for {
		if ok, next := c.parkedLocked(); ok {
			c.now = next
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		c.cond.Wait()
	}
}

// quiesce waits, without moving the hand, until loops role loops are
// parked and then every settle barrier has passed: the state machine has
// done all the current instant allows, and the hand shows when it did.
func (c *manualClock) quiesce() {
	c.mu.Lock()
	for ok, _ := c.parkedLocked(); !ok; ok, _ = c.parkedLocked() {
		c.cond.Wait()
	}
	c.mu.Unlock()
	for _, wait := range c.settle {
		wait()
	}
}

// actors adds delta to loops as role loops and clients start and stop,
// waking a step waiting on the count (a nil clock keeps no count).
func (c *manualClock) actors(delta int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.loops += delta
	c.cond.Broadcast()
	c.mu.Unlock()
}

// driveUntil fires fake timers one at a time until the predicate holds,
// failing the test after a generous bound.
func driveUntil(t *testing.T, clk *manualClock, what string, pred func() bool) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if pred() {
			return
		}
		clk.step()
	}
	t.Fatalf("state machine never reached: %s", what)
}

// settleUntil is driveUntil for a predicate whose instant matters: it is
// read only once the state machine has quiesced at the current hand.
func settleUntil(t *testing.T, clk *manualClock, what string, pred func() bool) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		clk.quiesce()
		if pred() {
			return
		}
		clk.step()
	}
	t.Fatalf("state machine never reached: %s", what)
}

// awaitAttachIdle spins until the node's background attach round, if
// any, has finished.
func (n *Node) awaitAttachIdle() {
	for {
		n.mu.Lock()
		busy := n.attaching
		n.mu.Unlock()
		if !busy {
			return
		}
		runtime.Gosched()
	}
}

// TestNodeSingleMemberElectsItself: a lone member stands as it starts —
// no lease to wait out, so no heartbeat is counted missed — wins
// trivially (quorum 1), and leads, all on the fake clock.
func TestNodeSingleMemberElectsItself(t *testing.T) {
	clk := newManualClock()
	n := newMember(t, newChaosNet(), clk, NodeConfig{Addr: "a", Seed: 42})
	defer n.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- n.Run(ctx) }()

	driveUntil(t, clk, "leader role", func() bool { return n.Role() == RoleLeader })

	if got := n.Term(); got != 1 {
		t.Fatalf("elected term = %d, want 1", got)
	}
	if got := n.LeaderAddr(); got != "a" {
		t.Fatalf("leader addr = %q, want self", got)
	}
	col := n.Follower().Pipeline().Collector()
	if got := col.Get(stats.CtrReplHeartbeatsMissed); got != 0 {
		t.Fatalf("heartbeats missed = %d, want 0", got)
	}
	if got := col.Get(stats.CtrReplElections); got != 1 {
		t.Fatalf("elections = %d, want 1", got)
	}
	cancel()
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// TestNodeLeaseRenewalSuppressesElection: as long as liveness arrives
// inside the lease window the follower never stands; once heartbeats
// stop the lease expires, the node turns candidate, and with its single
// peer unreachable it keeps losing quorum without ever claiming a term.
func TestNodeLeaseRenewalSuppressesElection(t *testing.T) {
	clk := newManualClock()
	fabric := newChaosNet()
	n := newMember(t, fabric, clk, NodeConfig{Addr: "a", Peers: []string{"b"}, Seed: 42})
	defer n.Close()
	fabric.setDown("b", true)
	// A leader reached the node before its first splay ran out: the
	// candidacy it started with ends, and it follows under a lease.
	n.noteLiveness(n.Term())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go n.Run(ctx)

	col := n.Follower().Pipeline().Collector()
	// Heartbeat at twice the leader cadence for a while: the lease
	// (4 heartbeats) never comes close to expiring.
	for i := 0; i < 10; i++ {
		clk.awaitPendingSleeper()
		clk.Advance(2 * time.Second)
		n.noteLiveness(n.Term())
	}
	if got := n.Role(); got != RoleFollower {
		t.Fatalf("role under live heartbeats = %s, want follower", got)
	}
	if got := col.Get(stats.CtrReplHeartbeatsMissed); got != 0 {
		t.Fatalf("heartbeats missed under live lease = %d, want 0", got)
	}
	if got := col.Get(stats.CtrReplElections); got != 0 {
		t.Fatalf("elections under live lease = %d, want 0", got)
	}

	// Silence. The lease runs out and the node stands — but its only
	// peer is unreachable, so every round fails the quorum check and it
	// must neither promote nor adopt a term.
	driveUntil(t, clk, "candidacy after silence", func() bool {
		return col.Get(stats.CtrReplElections) >= 2
	})
	if got := n.Role(); got != RoleCandidate {
		t.Fatalf("role after quorum-less elections = %s, want candidate", got)
	}
	if got := col.Get(stats.CtrReplHeartbeatsMissed); got == 0 {
		t.Fatal("lease expiry was never counted")
	}
	if got := n.Follower().Term(); got != 0 {
		t.Fatalf("durable term after quorum-less elections = %d, want 0", got)
	}

	// The peer comes back (as a reachable, empty follower): the very
	// next round reaches quorum and this node claims term 1.
	peer := newMember(t, fabric, clk, NodeConfig{Addr: "b", Peers: []string{"a"}, Seed: 42})
	defer peer.Close()
	fabric.setDown("b", false)
	driveUntil(t, clk, "victory once quorum is reachable", func() bool {
		return n.Role() == RoleLeader
	})
	if got := n.Term(); got != 1 {
		t.Fatalf("elected term = %d, want 1", got)
	}
}

// coldMember builds member addr of the ring a, b, c on the manual clock.
func coldMember(t *testing.T, fabric *chaosNet, clk *manualClock, addr string) *Node {
	var peers []string
	for _, p := range []string{"a", "b", "c"} {
		if p != addr {
			peers = append(peers, p)
		}
	}
	return newMember(t, fabric, clk, NodeConfig{Addr: addr, Peers: peers, Seed: 42})
}

// firstSplay is the splay coldMember(addr) draws for its first
// candidacy: a twin with the same address and seed draws the same.
func firstSplay(t *testing.T, addr string) time.Duration {
	twin := coldMember(t, newChaosNet(), nil, addr)
	defer twin.Close()
	return twin.electionSplay()
}

// TestNodeColdClusterElectsInOneRound: three members started together
// elect in their first probe round. Every member answers a's first
// round, none outranks it (equal logs, lowest address), so a claims
// term 1 at once and attaches b and c — all before the hand reaches the
// shortest splay (half a heartbeat). b and c defer to a in their own
// first rounds: exactly one claim, and no lease expiry or demotion
// anywhere.
func TestNodeColdClusterElectsInOneRound(t *testing.T) {
	clk := newManualClock()
	fabric := newChaosNet()
	var nodes []*Node
	for _, addr := range []string{"a", "b", "c"} {
		n := coldMember(t, fabric, clk, addr)
		defer n.Close()
		nodes = append(nodes, n)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := clk.Now()
	clk.loops = len(nodes)
	for _, n := range nodes {
		go n.Run(ctx)
	}
	settleUntil(t, clk, "a leading b and c at term 1", func() bool {
		return nodes[0].Role() == RoleLeader && nodes[1].Follower().Term() == 1 && nodes[2].Follower().Term() == 1
	})
	if took, shortest := clk.Now().Sub(start), nodes[0].cfg.HeartbeatEvery/2; took >= shortest {
		t.Fatalf("cold cluster took %v of fake time to elect and attach, want under the shortest splay (%v)", took, shortest)
	}
	fabric.log.mu.Lock()
	claims := fmt.Sprint(fabric.log.elected)
	fabric.log.mu.Unlock()
	if claims != "map[1:[a]]" {
		t.Fatalf("cold cluster recorded claims %s, want exactly one, a's at term 1", claims)
	}
	for _, n := range nodes {
		col := n.Follower().Pipeline().Collector()
		if got := col.Get(stats.CtrReplHeartbeatsMissed); got != 0 {
			t.Fatalf("%s counted %d lease expiries on a cold start, want 0", n.cfg.Addr, got)
		}
		if got := col.Get(stats.CtrReplDemotions); got != 0 {
			t.Fatalf("%s demoted %d times on a cold start, want 0", n.cfg.Addr, got)
		}
	}
}

// TestNodeColdRoundNeedsEveryMember: a cold round claims only when every
// member answers. With c down, a's rounds through its splay reach two of
// three and claim nothing; the quorum round at the end of the splay —
// the instant a candidacy after a lease expiry runs it — elects a at
// term 1. The whole window is one candidacy on the election counter.
func TestNodeColdRoundNeedsEveryMember(t *testing.T) {
	clk := newManualClock()
	fabric := newChaosNet()
	splay := firstSplay(t, "a")
	a := coldMember(t, fabric, clk, "a")
	defer a.Close()
	b := coldMember(t, fabric, clk, "b")
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := clk.Now()
	clk.loops = 2
	go a.Run(ctx)
	go b.Run(ctx)
	settleUntil(t, clk, "a leading b", func() bool {
		return a.Role() == RoleLeader && b.Follower().Term() == 1
	})
	if took := clk.Now().Sub(start); took != splay {
		t.Fatalf("a led after %v of fake time with c down, want exactly its splay %v (the quorum round)", took, splay)
	}
	if got := a.Term(); got != 1 {
		t.Fatalf("elected term = %d, want 1", got)
	}
	if got := a.Follower().Pipeline().Collector().Get(stats.CtrReplElections); got != 1 {
		t.Fatalf("a counted %d elections for one cold candidacy, want 1", got)
	}
}

// TestNodeColdRoundWaitsForLateMember: a member that comes up partway
// through a's splay is heard in a's next round, which then claims —
// before the splay ends, without waiting for the quorum round.
func TestNodeColdRoundWaitsForLateMember(t *testing.T) {
	clk := newManualClock()
	fabric := newChaosNet()
	splay := firstSplay(t, "a")
	a := coldMember(t, fabric, clk, "a")
	defer a.Close()
	b := coldMember(t, fabric, clk, "b")
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := clk.Now()
	clk.loops = 2
	go a.Run(ctx)
	go b.Run(ctx)
	settleUntil(t, clk, "half of a's splay", func() bool {
		return !clk.Now().Before(start.Add(splay / 2))
	})
	if a.Role() == RoleLeader {
		t.Fatal("a claimed with c down")
	}
	c := coldMember(t, fabric, clk, "c")
	defer c.Close()
	clk.loops = 3
	go c.Run(ctx)
	settleUntil(t, clk, "a leading b and c at term 1", func() bool {
		return a.Role() == RoleLeader && b.Follower().Term() == 1 && c.Follower().Term() == 1
	})
	if took := clk.Now().Sub(start); took >= splay {
		t.Fatalf("a led after %v of fake time, want inside its splay %v once c answered", took, splay)
	}
}

// TestNodeStartingIntoLiveClusterDefers: the election probe is a
// starting member's grace. The leader cannot dial the newcomer, so
// nothing attaches it and its candidacy runs to the probe — where the
// leader names itself, and the newcomer defers rather than claim a term
// and depose it. Once reachable it is attached at the leader's term,
// and no member ever waited out a lease.
func TestNodeStartingIntoLiveClusterDefers(t *testing.T) {
	clk := newManualClock()
	fabric := newChaosNet()
	a := newMember(t, fabric, clk, NodeConfig{Addr: "a", Peers: []string{"b", "c"}, Seed: 42})
	defer a.Close()
	b := newMember(t, fabric, clk, NodeConfig{Addr: "b", Peers: []string{"a", "c"}, Seed: 42})
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clk.loops = 2
	go a.Run(ctx)
	go b.Run(ctx)
	driveUntil(t, clk, "a leading b at term 1", func() bool {
		return a.Role() == RoleLeader && b.Follower().Term() == 1
	})

	// Dials to c fail; c's own dials get through.
	fabric.setDown("c", true)
	c := newMember(t, fabric, clk, NodeConfig{Addr: "c", Peers: []string{"a", "b"}, Seed: 42})
	defer c.Close()
	start := clk.Now()
	clk.loops = 3
	go c.Run(ctx)
	ccol := c.Follower().Pipeline().Collector()
	driveUntil(t, clk, "the newcomer's candidacy deferring", func() bool {
		return ccol.Get(stats.CtrReplElections) >= 1 && c.Role() == RoleFollower
	})
	if took := clk.Now().Sub(start); took >= 2*time.Second {
		t.Fatalf("newcomer stood after %v of fake time, want within one splay (under 2s)", took)
	}
	if got := c.Follower().Term(); got != 0 {
		t.Fatalf("deferring newcomer holds durable term %d, want 0 (no claim)", got)
	}
	if got := c.LeaderAddr(); got != "a" {
		t.Fatalf("deferring newcomer's leader hint = %q, want the live leader", got)
	}
	// It redirects clients there, but has never heard from a and so must
	// not vouch for it to another candidate's probe.
	pside, cside := net.Pipe()
	go c.HandleConn(cside)
	st, err := Probe(pside, time.Second, clk)
	pside.Close()
	if err != nil || st.Leader != "" {
		t.Fatalf("probe of the deferring newcomer: %+v, %v; want no leader named", st, err)
	}

	fabric.setDown("c", false)
	driveUntil(t, clk, "the leader attaching the newcomer", func() bool {
		return c.Follower().Term() == 1
	})
	if a.Role() != RoleLeader || a.Term() != 1 {
		t.Fatalf("leader is %s at term %d after the newcomer joined, want leader at term 1", a.Role(), a.Term())
	}
	for _, n := range []*Node{a, b, c} {
		col := n.Follower().Pipeline().Collector()
		if got := col.Get(stats.CtrReplDemotions); got != 0 {
			t.Fatalf("%s demoted %d times, want 0", n.cfg.Addr, got)
		}
		if got := col.Get(stats.CtrReplHeartbeatsMissed); got != 0 {
			t.Fatalf("%s counted %d lease expiries, want 0", n.cfg.Addr, got)
		}
	}
}

// TestElectionDefersToMoreCurrentPeer: the up-to-dateness comparison.
// A candidate whose log is shorter loses to the longer peer; the longer
// peer wins; and once a leader exists, later candidacies defer to it
// via the lease-scoped hint rather than fighting.
func TestElectionDefersToMoreCurrentPeer(t *testing.T) {
	clk := newManualClock()
	fabric := newChaosNet()
	w := testWorkload(t, 4)
	a := newMember(t, fabric, clk, NodeConfig{Addr: "a", Peers: []string{"b"}, Seed: 42})
	defer a.Close()
	b := newMember(t, fabric, clk, NodeConfig{Addr: "b", Peers: []string{"a"}, Seed: 42})
	defer b.Close()

	// b holds three batches that a never saw.
	for _, batch := range w.Batches[:3] {
		if err := b.Follower().Pipeline().Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}

	err := a.electRound(a.quorum(), time.Time{})
	if !errors.Is(err, ErrElectionLost) {
		t.Fatalf("short-log candidacy: got %v, want ErrElectionLost", err)
	}
	if a.Role() == RoleLeader || a.Follower().Term() != 0 {
		t.Fatal("losing candidate must not claim a term")
	}

	if err := b.electRound(b.quorum(), time.Time{}); err != nil {
		t.Fatalf("most-current candidacy: %v", err)
	}
	if b.Role() != RoleLeader || b.Term() != 1 {
		t.Fatalf("winner: role %s term %d, want leader at term 1", b.Role(), b.Term())
	}

	// a stands again: b answers its probe naming itself leader, and a
	// defers to the live leader instead of bidding the term up.
	err = a.electRound(a.quorum(), time.Time{})
	if !errors.Is(err, ErrElectionLost) {
		t.Fatalf("candidacy against a live leader: got %v, want ErrElectionLost", err)
	}

	// With b gone, a cannot reach a quorum and must not self-promote.
	fabric.setDown("b", true)
	err = a.electRound(a.quorum(), time.Time{})
	if !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("partitioned candidacy: got %v, want ErrQuorumLost", err)
	}
}

// TestElectionSplayIsSeeded: the pre-candidacy wait is drawn from the
// node's seeded generator — reproducible per node, different across
// addresses — so identically configured members race deterministically.
func TestElectionSplayIsSeeded(t *testing.T) {
	clk := newManualClock()
	mk := func(addr string) *Node {
		return newMember(t, newChaosNet(), clk, NodeConfig{Addr: addr, Peers: []string{"x"}, Seed: 42})
	}
	a1, a2, b := mk("a"), mk("a"), mk("b")
	defer a1.Close()
	defer a2.Close()
	defer b.Close()
	var s1, s2, s3 []time.Duration
	for i := 0; i < 8; i++ {
		s1 = append(s1, a1.electionSplay())
		s2 = append(s2, a2.electionSplay())
		s3 = append(s3, b.electionSplay())
	}
	same, diff := true, false
	for i := range s1 {
		same = same && s1[i] == s2[i]
		diff = diff || s1[i] != s3[i]
		lo, hi := 500*time.Millisecond, 2*time.Second
		if s1[i] < lo || s1[i] >= hi {
			t.Fatalf("splay %v outside [%v, %v)", s1[i], lo, hi)
		}
	}
	if !same {
		t.Fatalf("same seed and address drew different splays: %v vs %v", s1, s2)
	}
	if !diff {
		t.Fatalf("different addresses drew identical splays: %v", s1)
	}
}

// TestNodeDeposedLeaderAutoDemotes: a leader whose follower half
// durably adopts a higher term has been deposed and must step down on
// its own — uninstall the primary, count the demotion, and follow the
// new authority.
func TestNodeDeposedLeaderAutoDemotes(t *testing.T) {
	clk := newManualClock()
	n := newMember(t, newChaosNet(), clk, NodeConfig{Addr: "a", Seed: 42})
	defer n.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go n.Run(ctx)
	driveUntil(t, clk, "initial leadership", func() bool { return n.Role() == RoleLeader })

	// A rival primary at a higher term opens a replication session.
	pside, nside := net.Pipe()
	sess := make(chan error, 1)
	go func() { sess <- n.HandleConn(nside) }()
	if err := WriteFrame(pside, Frame{Type: FrameHello, Term: 5, Payload: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if fr, err := ReadFrame(pside); err != nil || fr.Type != FrameWelcome {
		t.Fatalf("rival handshake: %+v, %v", fr, err)
	}
	pside.Close()
	<-sess

	if got := n.Role(); got != RoleFollower {
		t.Fatalf("deposed role = %s, want follower", got)
	}
	if got := n.Term(); got != 5 {
		t.Fatalf("deposed term = %d, want 5", got)
	}
	if got := n.LeaderAddr(); got != "b" {
		t.Fatalf("deposed leader hint = %q, want the rival", got)
	}
	col := n.Follower().Pipeline().Collector()
	if got := col.Get(stats.CtrReplDemotions); got != 1 {
		t.Fatalf("demotions = %d, want 1", got)
	}
	// The demoted node keeps running as a follower: silence from the
	// rival expires the lease and it stands again at a higher term.
	driveUntil(t, clk, "re-candidacy after demotion", func() bool {
		return n.Role() == RoleLeader
	})
	if got := n.Term(); got != 6 {
		t.Fatalf("re-elected term = %d, want 6", got)
	}
}

// TestNodeRejoinReseedsDivergedMember: a member whose log was stamped
// under an old authority rejoins a cluster whose leader's ledger
// disagrees over their shared prefix. The leader detects the divergence
// at attach, ships its newest checkpoint through the PR 7 reseed path
// (auto-wired by NewNode from the pipeline's own checkpoints), and the
// member converges to the leader's exact states — all on the fake
// clock, with no operator involvement. Close must then have parked every
// native worker pool: both members' and the one the install replaced.
func TestNodeRejoinReseedsDivergedMember(t *testing.T) {
	base := settledWorkers()
	clk := newManualClock()
	fabric := newChaosNet()
	w := testWorkload(t, 6)
	want := referenceStates(w)

	// x's first life: three batches adopted under term 2, no
	// checkpoints of its own.
	xdir := t.TempDir()
	{
		cfg := nodeConfig(w, xdir)
		cfg.CheckpointEvery = -1
		fl, err := NewFollower(FollowerConfig{Pipeline: cfg})
		if err != nil {
			t.Fatal(err)
		}
		feedFollower(t, fl, w, 2, 0, 3)
		fl.Pipeline().Close()
	}
	// l's richer life: all six batches under term 5, checkpointing as
	// it goes — its ledger says the shared prefix originated at term 5,
	// so x's term-2 stamps mark x diverged, not merely behind.
	ldir := t.TempDir()
	{
		fl, err := NewFollower(FollowerConfig{Pipeline: nodeConfig(w, ldir)})
		if err != nil {
			t.Fatal(err)
		}
		feedFollower(t, fl, w, 5, 0, 6)
		fl.Pipeline().Close()
	}

	mk := func(addr, peer string, cfg serve.PipelineConfig) *Node {
		return newMember(t, fabric, clk, NodeConfig{Addr: addr, Peers: []string{peer}, Pipeline: cfg, Seed: 42})
	}
	xcfg := nodeConfig(w, xdir)
	xcfg.CheckpointEvery = -1
	x := mk("x", "l", xcfg)
	defer x.Close()
	l := mk("l", "x", nodeConfig(w, ldir))
	defer l.Close()

	// Only l drives a role loop; x serves inbound connections the way
	// any member does, so the rejoin is entirely leader-initiated.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go l.Run(ctx)

	driveUntil(t, clk, "leader elected and diverged member reseeded", func() bool {
		return l.Role() == RoleLeader && x.Follower().Seq() == 6
	})

	if got := l.Term(); got != 6 {
		t.Fatalf("leader term = %d, want 6 (one past the richest probed term)", got)
	}
	if got := x.Follower().Term(); got != 6 {
		t.Fatalf("rejoined member term = %d, want the leader's 6", got)
	}
	lcol := l.Follower().Pipeline().Collector()
	xcol := x.Follower().Pipeline().Collector()
	if got := lcol.Get(stats.CtrReplReseedOffers); got != 1 {
		t.Fatalf("leader reseed offers = %d, want 1", got)
	}
	if got := xcol.Get(stats.CtrReplReseedInstalls); got != 1 {
		t.Fatalf("member reseed installs = %d, want 1", got)
	}
	// Quiesce before reading states: Close joins x's replication
	// session, which may still be applying the last caught-up record.
	cancel()
	l.Close()
	x.Close()
	if !statesEqual(x.Follower().Pipeline().Session().States(), want) {
		t.Fatal("reseeded member states diverged from the reference")
	}
	if got := settledWorkers(); got != base {
		t.Fatalf("%d native worker goroutines alive after Close, want the %d from before the test", got, base)
	}
}

// TestNodeStrandedIngestNeverAcked pins the durable-prefix contract: a
// client batch that reaches the leader's WAL but loses its replication
// quorum must never be advertised as durable. The leader steps down on
// the spot and the refusal (like any later Welcome from it) reports
// only the quorum-acknowledged prefix — so the client resubmits the
// batch to the next leader instead of counting it durable and silently
// losing it when the stranded tail is reseeded away.
func TestNodeStrandedIngestNeverAcked(t *testing.T) {
	clk := newManualClock()
	fabric := newChaosNet()
	n := newMember(t, fabric, clk, NodeConfig{Addr: "a", Peers: []string{"b", "c"}, Seed: 42})
	defer n.Close()
	b := newMember(t, fabric, clk, NodeConfig{Addr: "b", Peers: []string{"a", "c"}, Seed: 42})
	defer b.Close()
	c := newMember(t, fabric, clk, NodeConfig{Addr: "c", Peers: []string{"a", "b"}, Seed: 42})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go n.Run(ctx)
	// Both followers durably adopting the claimed term means both
	// replication sessions are attached and counting toward quorum.
	driveUntil(t, clk, "leadership with both followers attached", func() bool {
		return n.Role() == RoleLeader && b.Follower().Term() == 1 && c.Follower().Term() == 1
	})

	// Sever both followers between two heartbeats (the role loop is
	// parked, so the primary has not noticed): the next ingest appends to
	// the local WAL, then fails to assemble its replication quorum.
	clk.awaitPendingSleeper()
	fabric.setDown("b", true)
	fabric.setDown("c", true)

	conn, err := fabric.dial("a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, Frame{Type: FrameClientHello}); err != nil {
		t.Fatal(err)
	}
	fr, err := ReadFrame(conn)
	if err != nil || fr.Type != FrameWelcome || fr.Seq != 0 {
		t.Fatalf("handshake: %+v, %v, want a Welcome at seq 0", fr, err)
	}
	w := testWorkload(t, 4)
	if err := WriteFrame(conn, Frame{Type: FrameSubmit, Seq: 1, Payload: wal.EncodeBatch(w.Batches[0])}); err != nil {
		t.Fatal(err)
	}
	fr, err = ReadFrame(conn)
	if err != nil || fr.Type != FrameReject {
		t.Fatalf("quorum-lost submit: %+v, %v, want a refusal", fr, err)
	}

	// The batch is stranded in the WAL (log end 1) but was never
	// acknowledged; the node must have stepped down rather than keep
	// promising durability it cannot deliver.
	if got := n.Follower().Seq(); got != 1 {
		t.Fatalf("local log end = %d, want the stranded batch at 1", got)
	}
	if got := n.Role(); got == RoleLeader {
		t.Fatal("leader kept serving after stranding a batch")
	}
	col := n.Follower().Pipeline().Collector()
	if got := col.Get(stats.CtrReplDemotions); got != 1 {
		t.Fatalf("demotions = %d, want 1", got)
	}

	// A reconnecting client must be refused — never Welcomed with the
	// never-quorum-acked sequence.
	conn2, err := fabric.dial("a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := WriteFrame(conn2, Frame{Type: FrameClientHello}); err != nil {
		t.Fatal(err)
	}
	fr, err = ReadFrame(conn2)
	if err != nil || fr.Type != FrameReject {
		t.Fatalf("post-demote handshake: %+v, %v, want a refusal", fr, err)
	}
}

// TestNodeIsolatedLeaderStepsDown: a leader that cannot deliver
// heartbeats to any follower for a full lease demotes itself rather
// than serving the minority side of a partition.
func TestNodeIsolatedLeaderStepsDown(t *testing.T) {
	clk := newManualClock()
	fabric := newChaosNet()
	n := newMember(t, fabric, clk, NodeConfig{Addr: "a", Peers: []string{"b", "c"}, Seed: 42})
	defer n.Close()
	b := newMember(t, fabric, clk, NodeConfig{Addr: "b", Peers: []string{"a", "c"}, Seed: 42})
	defer b.Close()
	c := newMember(t, fabric, clk, NodeConfig{Addr: "c", Peers: []string{"a", "b"}, Seed: 42})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go n.Run(ctx)
	// b and c do not run their own loops here: this test isolates a's
	// step-down, not the rival election.
	driveUntil(t, clk, "leadership over b and c", func() bool { return n.Role() == RoleLeader })

	col := n.Follower().Pipeline().Collector()
	sent := col.Get(stats.CtrReplHeartbeatsSent)
	driveUntil(t, clk, "heartbeats flowing", func() bool {
		return col.Get(stats.CtrReplHeartbeatsSent) > sent+4
	})
	if got := n.Role(); got != RoleLeader {
		t.Fatalf("role while quorum reachable = %s, want leader", got)
	}

	// Total isolation: every heartbeat round now reaches 1 of 2.
	fabric.setDown("b", true)
	fabric.setDown("c", true)
	driveUntil(t, clk, "step-down after isolation", func() bool {
		return n.Role() != RoleLeader
	})
	if got := col.Get(stats.CtrReplDemotions); got != 1 {
		t.Fatalf("demotions = %d, want 1", got)
	}
}

// TestNodeBlackHoledPeerDoesNotStarveHeartbeats: one peer whose dial
// never returns must cost the healthy follower nothing. The leader's
// role loop keeps parking on its heartbeat timer — a loop stuck behind
// the dial would never park, and the follower's lease would run out into
// an election — and every tick renews the follower's lease in full, for
// three lease-lengths of fake time.
func TestNodeBlackHoledPeerDoesNotStarveHeartbeats(t *testing.T) {
	clk := newManualClock()
	fabric := newChaosNet()
	b := newMember(t, fabric, clk, NodeConfig{Addr: "b", Peers: []string{"a", "c"}, Seed: 42})
	defer b.Close()

	release := make(chan struct{})
	// a's attach round blocks on the black hole by design, so a stays out
	// of the clock's settle barrier: newMember gets no clock, a's config
	// brings its own.
	a := newMember(t, fabric, nil, NodeConfig{
		Addr: "a", Peers: []string{"b", "c"}, Seed: 42, Clock: clk,
		Dial: func(addr string) (net.Conn, error) {
			if addr == "c" {
				<-release
				return nil, errors.New("black hole")
			}
			return fabric.dialerFor("a")(addr)
		},
	})
	defer a.Close()
	defer close(release) // before Close, which joins the attach round
	// b signals each lease renewal (the handshake's at tick 0, a
	// heartbeat's after), so the wait is on the event, not on time.
	renewed := make(chan struct{}, 1)
	b.fol.cfg.OnLiveness = func(term uint64) {
		b.noteLiveness(term)
		renewed <- struct{}{}
	}
	term, err := a.fol.PromoteTo(1)
	if err != nil {
		t.Fatal(err)
	}
	a.becomeLeader(term)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go a.Run(ctx)

	lease := 4 * time.Second
	leaseLeft := func() time.Duration {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.leaseUntil.Sub(clk.Now())
	}
	for tick := 0; tick < 12; tick++ {
		clk.awaitPendingSleeper() // a's loop parked on its heartbeat timer
		<-renewed
		if got := leaseLeft(); got != lease {
			t.Fatalf("tick %d renewed the follower's lease to %v, want %v", tick, got, lease)
		}
		clk.step()
	}
	if got := a.Role(); got != RoleLeader {
		t.Fatalf("leader role = %s after 12 ticks with one follower live, want leader", got)
	}
	if b.Term() != 1 || b.Role() != RoleFollower {
		t.Fatalf("follower at term %d role %s, want term 1 follower", b.Term(), b.Role())
	}
}
