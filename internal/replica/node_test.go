package replica

import (
	"context"
	"errors"
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
	for !c.havePendingLocked() {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

func (c *manualClock) havePendingLocked() bool {
	for _, dl := range c.deadlines {
		if dl.After(c.now) {
			return true
		}
	}
	return false
}

// step waits for a pending sleeper and then jumps the hand exactly to
// the earliest pending wake time — one timer firing, no real sleeps.
func (c *manualClock) step() {
	for _, wait := range c.settle {
		wait()
	}
	c.mu.Lock()
	for {
		var next time.Time
		for _, dl := range c.deadlines {
			if dl.After(c.now) && (next.IsZero() || dl.Before(next)) {
				next = dl
			}
		}
		if !next.IsZero() {
			c.now = next
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		c.cond.Wait()
	}
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

// memNet is an in-memory dial fabric: each address maps to a Node whose
// HandleConn is spawned per dialed connection, and addresses can be
// taken down to simulate dead or unreachable members — refusing new
// dials and severing every connection already made to them, the way a
// crashed process drops its sockets.
type memNet struct {
	mu    sync.Mutex
	nodes map[string]*Node
	down  map[string]bool
	conns map[string][]net.Conn
}

func newMemNet() *memNet {
	return &memNet{
		nodes: make(map[string]*Node),
		down:  make(map[string]bool),
		conns: make(map[string][]net.Conn),
	}
}

func (m *memNet) add(addr string, n *Node) {
	m.mu.Lock()
	m.nodes[addr] = n
	m.down[addr] = false
	m.mu.Unlock()
}

func (m *memNet) setDown(addr string, down bool) {
	m.mu.Lock()
	m.down[addr] = down
	var sever []net.Conn
	if down {
		sever = m.conns[addr]
		m.conns[addr] = nil
	}
	m.mu.Unlock()
	for _, c := range sever {
		c.Close()
	}
}

func (m *memNet) dial(addr string) (net.Conn, error) {
	m.mu.Lock()
	n, ok := m.nodes[addr]
	down := m.down[addr]
	m.mu.Unlock()
	if !ok || down {
		return nil, errors.New("memnet: unreachable " + addr)
	}
	a, b := net.Pipe()
	m.mu.Lock()
	m.conns[addr] = append(m.conns[addr], a)
	m.mu.Unlock()
	go n.HandleConn(b)
	return a, nil
}

func newTestNode(t *testing.T, fabric *memNet, addr string, peers []string, clk *manualClock) *Node {
	t.Helper()
	w := testWorkload(t, 4)
	cfg := nodeConfig(w, t.TempDir())
	cfg.CheckpointEvery = -1
	n, err := NewNode(NodeConfig{
		Addr:           addr,
		Peers:          peers,
		Dial:           fabric.dial,
		Pipeline:       cfg,
		HeartbeatEvery: time.Second,
		Seed:           42,
		Clock:          clk,
	})
	if err != nil {
		t.Fatalf("NewNode(%s): %v", addr, err)
	}
	if fabric != nil {
		fabric.add(addr, n)
	}
	clk.settle = append(clk.settle, n.awaitAttachIdle)
	return n
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

// TestNodeSingleMemberElectsItself: a lone member's lease expires, it
// stands, wins trivially (quorum 1), and leads — all on the fake clock.
func TestNodeSingleMemberElectsItself(t *testing.T) {
	clk := newManualClock()
	n := newTestNode(t, newMemNet(), "a", nil, clk)
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
	if got := col.Get(stats.CtrReplHeartbeatsMissed); got != 1 {
		t.Fatalf("heartbeats missed = %d, want 1", got)
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
	fabric := newMemNet()
	n := newTestNode(t, fabric, "a", []string{"b"}, clk)
	defer n.Close()
	fabric.setDown("b", true)
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
	peer := newTestNode(t, fabric, "b", []string{"a"}, clk)
	defer peer.Close()
	fabric.setDown("b", false)
	driveUntil(t, clk, "victory once quorum is reachable", func() bool {
		return n.Role() == RoleLeader
	})
	if got := n.Term(); got != 1 {
		t.Fatalf("elected term = %d, want 1", got)
	}
}

// TestElectionDefersToMoreCurrentPeer: the up-to-dateness comparison.
// A candidate whose log is shorter loses to the longer peer; the longer
// peer wins; and once a leader exists, later candidacies defer to it
// via the lease-scoped hint rather than fighting.
func TestElectionDefersToMoreCurrentPeer(t *testing.T) {
	clk := newManualClock()
	fabric := newMemNet()
	w := testWorkload(t, 4)
	a := newTestNode(t, fabric, "a", []string{"b"}, clk)
	defer a.Close()
	b := newTestNode(t, fabric, "b", []string{"a"}, clk)
	defer b.Close()

	// b holds three batches that a never saw.
	for _, batch := range w.Batches[:3] {
		if err := b.Follower().Pipeline().Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}

	err := a.electOnce()
	if !errors.Is(err, ErrElectionLost) {
		t.Fatalf("short-log candidacy: got %v, want ErrElectionLost", err)
	}
	if a.Role() == RoleLeader || a.Follower().Term() != 0 {
		t.Fatal("losing candidate must not claim a term")
	}

	if err := b.electOnce(); err != nil {
		t.Fatalf("most-current candidacy: %v", err)
	}
	if b.Role() != RoleLeader || b.Term() != 1 {
		t.Fatalf("winner: role %s term %d, want leader at term 1", b.Role(), b.Term())
	}

	// a stands again: b answers its probe naming itself leader, and a
	// defers to the live leader instead of bidding the term up.
	err = a.electOnce()
	if !errors.Is(err, ErrElectionLost) {
		t.Fatalf("candidacy against a live leader: got %v, want ErrElectionLost", err)
	}

	// With b gone, a cannot reach a quorum and must not self-promote.
	fabric.setDown("b", true)
	err = a.electOnce()
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
		return newTestNode(t, newMemNet(), addr, []string{"x"}, clk)
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
	n := newTestNode(t, newMemNet(), "a", nil, clk)
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
// clock, with no operator involvement.
func TestNodeRejoinReseedsDivergedMember(t *testing.T) {
	clk := newManualClock()
	fabric := newMemNet()
	w := testWorkload(t, 6)
	want := referenceStates(t, w)

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
		n, err := NewNode(NodeConfig{
			Addr: addr, Peers: []string{peer}, Dial: fabric.dial,
			Pipeline: cfg, HeartbeatEvery: time.Second, Seed: 42, Clock: clk,
		})
		if err != nil {
			t.Fatalf("NewNode(%s): %v", addr, err)
		}
		fabric.add(addr, n)
		clk.settle = append(clk.settle, n.awaitAttachIdle)
		return n
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
	fabric := newMemNet()
	n := newTestNode(t, fabric, "a", []string{"b", "c"}, clk)
	defer n.Close()
	b := newTestNode(t, fabric, "b", []string{"a", "c"}, clk)
	defer b.Close()
	c := newTestNode(t, fabric, "c", []string{"a", "b"}, clk)
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
	fabric := newMemNet()
	n := newTestNode(t, fabric, "a", []string{"b", "c"}, clk)
	defer n.Close()
	b := newTestNode(t, fabric, "b", []string{"a", "c"}, clk)
	defer b.Close()
	c := newTestNode(t, fabric, "c", []string{"a", "b"}, clk)
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
	fabric := newMemNet()
	b := newTestNode(t, fabric, "b", []string{"a", "c"}, clk)
	defer b.Close()

	release := make(chan struct{})
	w := testWorkload(t, 4)
	cfg := nodeConfig(w, t.TempDir())
	cfg.CheckpointEvery = -1
	a, err := NewNode(NodeConfig{
		Addr: "a", Peers: []string{"b", "c"}, Pipeline: cfg,
		HeartbeatEvery: time.Second, Seed: 42, Clock: clk,
		Dial: func(addr string) (net.Conn, error) {
			if addr == "c" {
				<-release
				return nil, errors.New("black hole")
			}
			return fabric.dial(addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer close(release) // before Close, which joins the attach round
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
		waitFor(t, 5*time.Second, "leader parked on its heartbeat timer", func() bool {
			clk.mu.Lock()
			defer clk.mu.Unlock()
			return clk.havePendingLocked()
		})
		waitFor(t, 5*time.Second, "this tick renewing the follower's lease", func() bool {
			return leaseLeft() == lease
		})
		clk.step()
	}
	if got := a.Role(); got != RoleLeader {
		t.Fatalf("leader role = %s after 12 ticks with one follower live, want leader", got)
	}
	if b.Term() != 1 || b.Role() != RoleFollower {
		t.Fatalf("follower at term %d role %s, want term 1 follower", b.Term(), b.Role())
	}
}
