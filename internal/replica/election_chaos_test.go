package replica

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
)

// These trials are the hands-off counterpart of chaos_test.go: nobody
// calls Promote. Nodes run their own lease monitors and elections, the
// client chases the leader through redirect hints, and the tests only
// inject failures and assert the invariants at the end — no
// acknowledged batch lost, exactly one leader per term, deterministic
// converged state.

// chaosNet is an in-memory fabric for full Node clusters: per-source
// dialers so a member (or the client) can be isolated from everyone,
// per-target inbound wrappers for fault injection, and kill/sever that
// drops a member the way a crashed process drops its sockets.
type chaosNet struct {
	mu       sync.Mutex
	nodes    map[string]*Node
	gone     map[string]bool
	isolated map[string]bool
	wrapIn   map[string]func(net.Conn) net.Conn
	conns    map[string][]net.Conn
}

func newChaosNet() *chaosNet {
	return &chaosNet{
		nodes:    make(map[string]*Node),
		gone:     make(map[string]bool),
		isolated: make(map[string]bool),
		wrapIn:   make(map[string]func(net.Conn) net.Conn),
		conns:    make(map[string][]net.Conn),
	}
}

func (f *chaosNet) register(addr string, n *Node) {
	f.mu.Lock()
	f.nodes[addr] = n
	f.gone[addr] = false
	f.mu.Unlock()
}

// dialerFor returns the Dial function for one member: connections fail
// when either endpoint is isolated or the target is gone, and each
// endpoint's own end is tracked, so severing an address closes its
// side of every connection it touches — what a killed process's kernel
// does, and what its peers then read as a bare io.EOF.
func (f *chaosNet) dialerFor(src string) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		f.mu.Lock()
		n := f.nodes[addr]
		bad := n == nil || f.gone[addr] || f.isolated[src] || f.isolated[addr]
		wrap := f.wrapIn[addr]
		f.mu.Unlock()
		if bad {
			return nil, fmt.Errorf("chaosnet: %s cannot reach %s", src, addr)
		}
		a, b := net.Pipe()
		server := net.Conn(b)
		if wrap != nil {
			server = wrap(server)
		}
		f.mu.Lock()
		f.conns[src] = append(f.conns[src], a)
		f.conns[addr] = append(f.conns[addr], server)
		f.mu.Unlock()
		go n.HandleConn(server)
		return a, nil
	}
}

// sever cuts every connection touching addr.
func (f *chaosNet) sever(addr string) {
	f.mu.Lock()
	cut := f.conns[addr]
	f.conns[addr] = nil
	f.mu.Unlock()
	for _, c := range cut {
		c.Close()
	}
}

// isolate partitions addr away from every other member (and back).
func (f *chaosNet) isolate(addr string, on bool) {
	f.mu.Lock()
	f.isolated[addr] = on
	f.mu.Unlock()
	if on {
		f.sever(addr)
	}
}

// kill marks addr dead and cuts its connections; register revives it.
func (f *chaosNet) kill(addr string) {
	f.mu.Lock()
	f.gone[addr] = true
	f.mu.Unlock()
	f.sever(addr)
}

// wrapInbound installs (or, with nil, removes) a fault wrapper applied
// to every new inbound connection to addr.
func (f *chaosNet) wrapInbound(addr string, wrap func(net.Conn) net.Conn) {
	f.mu.Lock()
	f.wrapIn[addr] = wrap
	f.mu.Unlock()
}

// electionLog records node events and indexes leadership claims so the
// one-leader-per-term invariant can be checked after a trial.
type electionLog struct {
	mu      sync.Mutex
	lines   []string
	elected map[uint64][]string
}

func newElectionLog() *electionLog {
	return &electionLog{elected: make(map[uint64][]string)}
}

func (e *electionLog) hook(addr string) func(string) {
	return func(s string) {
		e.mu.Lock()
		e.lines = append(e.lines, addr+": "+s)
		var term uint64
		if n, _ := fmt.Sscanf(s, "elected leader at term %d", &term); n == 1 {
			e.elected[term] = append(e.elected[term], addr)
		}
		e.mu.Unlock()
	}
}

func (e *electionLog) checkOneLeaderPerTerm(t *testing.T) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	for term, leaders := range e.elected {
		if len(leaders) > 1 {
			t.Errorf("term %d claimed by %d leaders: %v", term, len(leaders), leaders)
		}
	}
	if t.Failed() {
		for _, l := range e.lines {
			t.Log(l)
		}
	}
}

// liveNode is one running cluster member plus the handles to stop and
// restart it.
type liveNode struct {
	addr    string
	dir     string
	node    *Node
	cancel  context.CancelFunc
	done    chan error
	stopped bool
}

// startLiveNode builds and runs a Node over dir with fast real-clock
// timings: net.Pipe transports make round trips take microseconds, so
// millisecond leases keep whole failover stories inside a second while
// the digests stay schedule-independent.
func startLiveNode(t *testing.T, fabric *chaosNet, elog *electionLog, w *stream.Workload,
	addr, dir string, peers []string, seed int64) *liveNode {
	t.Helper()
	cfg := nodeConfig(w, dir)
	n, err := NewNode(NodeConfig{
		Addr:           addr,
		Peers:          peers,
		Dial:           fabric.dialerFor(addr),
		Pipeline:       cfg,
		HeartbeatEvery: 10 * time.Millisecond,
		LeaseTimeout:   40 * time.Millisecond,
		AckTimeout:     time.Second,
		Seed:           seed,
		OnEvent:        elog.hook(addr),
	})
	if err != nil {
		t.Fatalf("NewNode(%s): %v", addr, err)
	}
	fabric.register(addr, n)
	ctx, cancel := context.WithCancel(context.Background())
	ln := &liveNode{addr: addr, dir: dir, node: n, cancel: cancel, done: make(chan error, 1)}
	go func() { ln.done <- n.Run(ctx) }()
	return ln
}

// stop shuts the member down and waits for full quiescence: Run has
// returned and Node.Close has joined any in-flight replication session,
// so the member's states are safe to read afterwards. Idempotent, so
// trials can stop members explicitly before reading states and still
// leave the deferred cleanup in place.
func (ln *liveNode) stop() {
	if ln.stopped {
		return
	}
	ln.stopped = true
	ln.cancel()
	<-ln.done
	ln.node.Close()
}

// waitFor polls pred until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func currentLeader(members []*liveNode) *liveNode {
	for _, m := range members {
		if m.node.Role() == RoleLeader {
			return m
		}
	}
	return nil
}

// throttleConn paces writes so a client feeding microsecond-fast pipes
// still has batches in flight when the trial injects its failure.
type throttleConn struct {
	net.Conn
	d time.Duration
}

func (c throttleConn) Write(p []byte) (int, error) {
	time.Sleep(c.d)
	return c.Conn.Write(p)
}

// chaosClient builds a failover client over the fabric with retry
// timings matched to the millisecond leases.
func chaosClient(t *testing.T, fabric *chaosNet, nodes []string, seed int64, pace time.Duration) *Client {
	t.Helper()
	dial := fabric.dialerFor("client")
	cl, err := NewClient(ClientConfig{
		Nodes: nodes,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := dial(addr)
			if err != nil {
				return nil, err
			}
			return throttleConn{Conn: conn, d: pace}, nil
		},
		AckTimeout:  time.Second,
		MaxAttempts: 25,
		Seed:        seed,
		Backoff:     &serve.Backoff{Base: 2 * time.Millisecond, Max: 40 * time.Millisecond, Multiplier: 2},
		Breaker:     serve.NewBreaker(10, 50*time.Millisecond, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// handsOffDigest is everything a hands-off trial decided that must
// reproduce run to run. Which member wins the race is scheduling, so
// it is checked for legality (one leader per term) but not pinned;
// the converged data must be bit-identical regardless.
type handsOffDigest struct {
	acked     uint64
	height    uint64
	stateHash uint64
}

// runHandsOffTrial kills the leader under client load and keeps its
// hands off: the survivors elect on their own, the client fails over
// through redirects, the deposed member restarts and rejoins, and the
// whole cluster must converge on the uninterrupted run's states.
func runHandsOffTrial(t *testing.T, trial int) handsOffDigest {
	t.Helper()
	w := testWorkload(t, 16)
	want := referenceStates(t, w)
	fabric := newChaosNet()
	elog := newElectionLog()

	addrs := []string{"alpha", "beta", "gamma"}
	peersOf := func(self string) []string {
		var ps []string
		for _, a := range addrs {
			if a != self {
				ps = append(ps, a)
			}
		}
		return ps
	}
	var members []*liveNode
	for i, a := range addrs {
		ln := startLiveNode(t, fabric, elog, w, a, t.TempDir(), peersOf(a), int64(trial*100+i))
		members = append(members, ln)
	}
	defer func() {
		for _, m := range members {
			m.stop()
		}
	}()

	waitFor(t, 10*time.Second, "initial election", func() bool { return currentLeader(members) != nil })

	cl := chaosClient(t, fabric, addrs, int64(trial), 2*time.Millisecond)
	clientDone := make(chan error, 1)
	go func() { clientDone <- cl.Run(context.Background(), w.Batches) }()

	// Let real load build, then kill whoever leads — hands off from here.
	waitFor(t, 10*time.Second, "load before the kill", func() bool {
		for _, m := range members {
			if m.node.Follower().Seq() >= 4 {
				return true
			}
		}
		return false
	})
	victim := currentLeader(members)
	if victim == nil {
		t.Fatal("leader vanished before the kill")
	}
	fabric.kill(victim.addr)
	victim.stop()

	if err := <-clientDone; err != nil {
		t.Fatalf("trial %d: client did not survive the failover: %v", trial, err)
	}
	if got := cl.Acked(); got != uint64(len(w.Batches)) {
		t.Fatalf("trial %d: client acked %d of %d batches", trial, got, len(w.Batches))
	}

	// The deposed member restarts from its own disks and must rejoin —
	// catching up, or reseeding if its unacknowledged tail diverged.
	for i, m := range members {
		if m == victim {
			members[i] = startLiveNode(t, fabric, elog, w, m.addr, m.dir, peersOf(m.addr), int64(trial*100+50))
		}
	}

	height := uint64(len(w.Batches))
	defer func() {
		if t.Failed() {
			for _, m := range members {
				t.Logf("%s: role=%s term=%d seq=%d", m.addr, m.node.Role(), m.node.Term(), m.node.Follower().Seq())
			}
			elog.mu.Lock()
			for _, l := range elog.lines {
				t.Log(l)
			}
			elog.mu.Unlock()
		}
	}()
	waitFor(t, 15*time.Second, "full cluster convergence", func() bool {
		for _, m := range members {
			if m.node.Follower().Seq() != height {
				return false
			}
		}
		return currentLeader(members) != nil
	})

	leaders := 0
	for _, m := range members {
		if m.node.Role() == RoleLeader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("trial %d: %d leaders after convergence, want exactly 1", trial, leaders)
	}
	elog.checkOneLeaderPerTerm(t)
	acked := cl.Acked()

	// Quiesce before touching states: the durable sequence is stored
	// before the apply, so a just-converged member may still be applying
	// its last record. stop() joins the session, making the reads safe.
	for _, m := range members {
		m.stop()
	}
	for _, m := range members {
		if !statesEqual(m.node.Follower().Pipeline().Session().States(), want) {
			t.Fatalf("trial %d: %s diverged from the uninterrupted run", trial, m.addr)
		}
	}
	return handsOffDigest{
		acked:     acked,
		height:    height,
		stateHash: hashStates(members[0].node.Follower().Pipeline().Session().States()),
	}
}

// TestChaosHandsOffFailover: kill-the-leader-under-load trials with no
// operator in the loop, each run twice — the converged outcome must be
// identical both times.
func TestChaosHandsOffFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failover trials")
	}
	for trial := 0; trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			first := runHandsOffTrial(t, trial)
			second := runHandsOffTrial(t, trial)
			if first != second {
				t.Fatalf("trial %d not deterministic: %+v vs %+v", trial, first, second)
			}
		})
	}
}

// TestChaosAsymmetricPartition: one follower goes deaf — every inbound
// connection to it dies after a single read (fault.NetPartitionRecv)
// while its own outbound dials still work. The deaf node's elections
// must defer to the leader everyone else still hears (leader
// stickiness), leadership and terms must hold steady, and healing the
// partition must let the deaf node catch all the way up over a
// same-term reattach.
func TestChaosAsymmetricPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second partition trial")
	}
	w := testWorkload(t, 12)
	want := referenceStates(t, w)
	fabric := newChaosNet()
	elog := newElectionLog()

	addrs := []string{"alpha", "beta", "gamma"}
	var members []*liveNode
	for i, a := range addrs {
		var peers []string
		for _, p := range addrs {
			if p != a {
				peers = append(peers, p)
			}
		}
		members = append(members, startLiveNode(t, fabric, elog, w, a, t.TempDir(), peers, int64(900+i)))
	}
	defer func() {
		for _, m := range members {
			m.stop()
		}
	}()
	waitFor(t, 10*time.Second, "initial election", func() bool { return currentLeader(members) != nil })
	leader := currentLeader(members)

	// Feed half the workload, then partition the reads of one follower.
	cl := chaosClient(t, fabric, addrs, 901, 0)
	if err := cl.Run(context.Background(), w.Batches[:6]); err != nil {
		t.Fatalf("pre-partition ingest: %v", err)
	}

	var deaf *liveNode
	for _, m := range members {
		if m != leader {
			deaf = m
			break
		}
	}
	// Each inbound connection gets its own injector: the partition trip
	// is one-shot per injector, and the deafness must hit every attach
	// attempt, not just the first.
	var wrapSeq int64
	fabric.wrapInbound(deaf.addr, func(c net.Conn) net.Conn {
		inj := fault.New(902 + atomic.AddInt64(&wrapSeq, 1))
		inj.Arm(fault.NetPartitionRecv, 1)
		return inj.Conn(c)
	})
	fabric.sever(deaf.addr)

	// The deaf node's lease expires and it keeps standing for election;
	// every candidacy must lose to the live leader.
	deafCol := deaf.node.Follower().Pipeline().Collector()
	waitFor(t, 10*time.Second, "deaf node candidacies", func() bool {
		return deafCol.Get(stats.CtrReplElections) >= 3
	})
	if err := cl.Run(context.Background(), w.Batches[:9]); err != nil {
		t.Fatalf("mid-partition ingest: %v", err)
	}
	if got := currentLeader(members); got != leader {
		t.Fatalf("leadership moved during an asymmetric partition: %v", got)
	}
	if got := deaf.node.Role(); got == RoleLeader {
		t.Fatal("deaf node deposed a healthy leader")
	}
	for _, m := range members {
		if got := m.node.Follower().Pipeline().Collector().Get(stats.CtrReplDemotions); got != 0 {
			t.Fatalf("%s demoted %d times during an asymmetric partition", m.addr, got)
		}
	}

	// Heal: the leader reattaches the deaf node at the *same* term (a
	// reconnect, not a new claim) and it converges.
	fabric.wrapInbound(deaf.addr, nil)
	if err := cl.Run(context.Background(), w.Batches); err != nil {
		t.Fatalf("post-heal ingest: %v", err)
	}
	height := uint64(len(w.Batches))
	waitFor(t, 10*time.Second, "deaf node catch-up after heal", func() bool {
		return deaf.node.Follower().Seq() == height
	})
	if got := leader.node.Term(); got != deaf.node.Follower().Term() {
		t.Fatalf("healed node at term %d, leader at %d", deaf.node.Follower().Term(), got)
	}
	elog.checkOneLeaderPerTerm(t)
	// Quiesce before reading states: stop() joins the catch-up session
	// that may still be applying the deaf node's last record.
	for _, m := range members {
		m.stop()
	}
	if !statesEqual(deaf.node.Follower().Pipeline().Session().States(), want) {
		t.Fatal("healed node diverged from the uninterrupted run")
	}
}

// TestChaosLeaderIsolationHeals: the leader is partitioned from both
// followers mid-load. The majority side elects a new leader and keeps
// serving the client; the isolated ex-leader steps itself down after a
// lease of missed quorums; healing the partition lets it rejoin as a
// follower and converge. One leader per term throughout.
func TestChaosLeaderIsolationHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second partition trial")
	}
	w := testWorkload(t, 16)
	want := referenceStates(t, w)
	fabric := newChaosNet()
	elog := newElectionLog()

	addrs := []string{"alpha", "beta", "gamma"}
	var members []*liveNode
	for i, a := range addrs {
		var peers []string
		for _, p := range addrs {
			if p != a {
				peers = append(peers, p)
			}
		}
		members = append(members, startLiveNode(t, fabric, elog, w, a, t.TempDir(), peers, int64(700+i)))
	}
	defer func() {
		for _, m := range members {
			m.stop()
		}
	}()
	waitFor(t, 10*time.Second, "initial election", func() bool { return currentLeader(members) != nil })

	cl := chaosClient(t, fabric, addrs, 703, 2*time.Millisecond)
	clientDone := make(chan error, 1)
	go func() { clientDone <- cl.Run(context.Background(), w.Batches) }()
	waitFor(t, 10*time.Second, "load before the partition", func() bool {
		for _, m := range members {
			if m.node.Follower().Seq() >= 4 {
				return true
			}
		}
		return false
	})

	isolated := currentLeader(members)
	if isolated == nil {
		t.Fatal("leader vanished before the partition")
	}
	fabric.isolate(isolated.addr, true)

	// The isolated ex-leader must step itself down, not serve a
	// minority partition forever.
	waitFor(t, 10*time.Second, "isolated leader steps down", func() bool {
		return isolated.node.Role() != RoleLeader
	})
	icol := isolated.node.Follower().Pipeline().Collector()
	if got := icol.Get(stats.CtrReplDemotions); got < 1 {
		t.Fatalf("isolated leader demotions = %d, want >= 1", got)
	}
	// The majority side keeps the client going to completion.
	if err := <-clientDone; err != nil {
		t.Fatalf("client did not survive the leader's isolation: %v", err)
	}
	if got := cl.Acked(); got != uint64(len(w.Batches)) {
		t.Fatalf("client acked %d of %d batches", got, len(w.Batches))
	}

	// Heal: the deposed member rejoins the new leader's cluster.
	fabric.isolate(isolated.addr, false)
	height := uint64(len(w.Batches))
	waitFor(t, 15*time.Second, "rejoin after heal", func() bool {
		return isolated.node.Follower().Seq() == height
	})
	leaders := 0
	for _, m := range members {
		if m.node.Role() == RoleLeader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders after heal, want exactly 1", leaders)
	}
	elog.checkOneLeaderPerTerm(t)
	// Quiesce before reading states: stop() joins the rejoin session
	// that may still be applying the ex-leader's last record.
	for _, m := range members {
		m.stop()
	}
	if !statesEqual(isolated.node.Follower().Pipeline().Session().States(), want) {
		t.Fatal("rejoined node diverged from the uninterrupted run")
	}
}
