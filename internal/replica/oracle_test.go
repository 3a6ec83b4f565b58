package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// The chaos stories share one harness and one end-of-story check. A
// story builds its members on the chaosNet fabric (Nodes through
// newMember, or operator-wired Primaries and Followers), injects its
// faults, and ends in oracle, which checks every invariant once over
// the quiesced survivors and returns the digest that twice requires to
// reproduce run to run.

// chaosNet is the in-memory dial fabric every cluster test runs on:
// per-source dialers, so a member (or the client) can be isolated from
// everyone; per-target inbound wrappers for fault injection; a write tap
// for firing a fault at an exact point of the traffic; and setDown,
// which drops a member the way a crashed process drops its sockets.
// Every member's events land in its one election log.
type chaosNet struct {
	mu       sync.Mutex
	nodes    map[string]*Node
	down     map[string]bool
	isolated map[string]bool
	wrapIn   map[string]func(net.Conn) net.Conn
	conns    map[string][]net.Conn
	tap      func(src, dst string, p []byte)
	log      *electionLog
}

func newChaosNet() *chaosNet {
	return &chaosNet{
		nodes:    make(map[string]*Node),
		down:     make(map[string]bool),
		isolated: make(map[string]bool),
		wrapIn:   make(map[string]func(net.Conn) net.Conn),
		conns:    make(map[string][]net.Conn),
		log:      &electionLog{elected: make(map[uint64][]string)},
	}
}

// register serves addr from n; an address taken down beforehand stays
// down until setDown brings it back.
func (f *chaosNet) register(addr string, n *Node) {
	f.mu.Lock()
	f.nodes[addr] = n
	f.mu.Unlock()
}

// dialerFor returns the Dial function for one member: connections fail
// when either endpoint is isolated or the target is down, and each
// endpoint's own end is tracked, so severing an address closes its
// side of every connection it touches — what a killed process's kernel
// does, and what its peers then read as a bare io.EOF.
func (f *chaosNet) dialerFor(src string) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		f.mu.Lock()
		n := f.nodes[addr]
		bad := n == nil || f.down[addr] || f.isolated[src] || f.isolated[addr]
		wrap, tap := f.wrapIn[addr], f.tap
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
		if tap != nil {
			return tapConn{Conn: a, tap: func(p []byte) { tap(src, addr, p) }}, nil
		}
		return a, nil
	}
}

// dial connects to addr as a client outside the cluster.
func (f *chaosNet) dial(addr string) (net.Conn, error) { return f.dialerFor("test")(addr) }

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

// setDown takes addr down — new dials to it fail and every connection
// touching it is cut — or brings it back.
func (f *chaosNet) setDown(addr string, down bool) {
	f.mu.Lock()
	f.down[addr] = down
	f.mu.Unlock()
	if down {
		f.sever(addr)
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

// wrapInbound installs (or, with nil, removes) a fault wrapper applied
// to every new inbound connection to addr.
func (f *chaosNet) wrapInbound(addr string, wrap func(net.Conn) net.Conn) {
	f.mu.Lock()
	f.wrapIn[addr] = wrap
	f.mu.Unlock()
}

// tapWrites shows every write on connections dialed from now on to tap,
// before the write is made.
func (f *chaosNet) tapWrites(tap func(src, dst string, p []byte)) {
	f.mu.Lock()
	f.tap = tap
	f.mu.Unlock()
}

type tapConn struct {
	net.Conn
	tap func(p []byte)
}

func (c tapConn) Write(p []byte) (int, error) {
	c.tap(p)
	return c.Conn.Write(p)
}

// onSubmit is a write tap that calls fire, once, as the client first
// sends the Submit for batch seq — with the address it is sending to,
// the leader that welcomed it.
func onSubmit(seq uint64, fire func(dst string)) func(src, dst string, p []byte) {
	var once sync.Once
	return func(src, dst string, p []byte) {
		if src != "client" {
			return
		}
		if fr, err := ReadFrame(bytes.NewReader(p)); err == nil && fr.Type == FrameSubmit && fr.Seq == seq {
			once.Do(func() { fire(dst) })
		}
	}
}

// electionLog records every member's events and indexes leadership
// claims for the oracle's one-leader-per-term clause.
type electionLog struct {
	mu      sync.Mutex
	lines   []string
	elected map[uint64][]string
}

func (e *electionLog) hook(addr string) func(string) {
	return func(s string) {
		e.mu.Lock()
		e.lines = append(e.lines, addr+": "+s)
		var term, seq uint64
		if n, _ := fmt.Sscanf(s, electedEvent, &term, &seq); n == 2 {
			e.elected[term] = append(e.elected[term], addr)
		}
		e.mu.Unlock()
	}
}

// newMember builds one Node on the fabric. The caller sets cfg's Addr,
// Peers, timings and Seed, and its Pipeline (zero: a four-batch
// workload without checkpoints in a fresh directory) and Dial (nil:
// the fabric's). The member's events go to the fabric's election log,
// and on the manual clock (clk non-nil) its attach rounds join the
// clock's settle barrier.
func newMember(t *testing.T, f *chaosNet, clk *manualClock, cfg NodeConfig) *Node {
	t.Helper()
	if cfg.Pipeline.Bootstrap == nil {
		cfg.Pipeline = nodeConfig(testWorkload(t, 4), t.TempDir())
		cfg.Pipeline.CheckpointEvery = -1
	}
	if cfg.Dial == nil {
		cfg.Dial = f.dialerFor(cfg.Addr)
	}
	cfg.OnEvent = f.log.hook(cfg.Addr)
	if clk != nil {
		cfg.Clock = clk
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatalf("NewNode(%s): %v", cfg.Addr, err)
	}
	f.register(cfg.Addr, n)
	if clk != nil {
		clk.settle = append(clk.settle, n.awaitAttachIdle)
	}
	return n
}

// cluster is a Node story: its members on one fabric and, in every
// story but the deadline storm, on the manual clock, where each running
// role loop and client is an actor the clock waits to see parked.
type cluster struct {
	t       *testing.T
	w       *stream.Workload
	net     *chaosNet
	clk     *manualClock // nil: the wall clock
	members []*liveNode
}

// liveNode is one running member.
type liveNode struct {
	*Node
	t      *testing.T
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
}

// fastTiming is the election stories' member timing: millisecond
// heartbeats and leases, matched by the client's retry schedule.
var fastTiming = NodeConfig{HeartbeatEvery: 10 * time.Millisecond, LeaseTimeout: 40 * time.Millisecond, AckTimeout: time.Second}

func newCluster(t *testing.T, w *stream.Workload, clk *manualClock) *cluster {
	return &cluster{t: t, w: w, net: newChaosNet(), clk: clk}
}

// trio starts alpha, beta and gamma with the timings of tmpl, each on
// its own directory, seeded seed, seed+1 and seed+2.
func (c *cluster) trio(tmpl NodeConfig, seed int64) {
	addrs := []string{"alpha", "beta", "gamma"}
	for i, a := range addrs {
		cfg := tmpl
		cfg.Addr, cfg.Seed = a, seed+int64(i)
		cfg.Pipeline = nodeConfig(c.w, c.t.TempDir())
		for _, p := range addrs {
			if p != a {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
		c.start(cfg)
	}
}

// start builds a member from cfg and runs its role loop.
func (c *cluster) start(cfg NodeConfig) *liveNode {
	ctx, cancel := context.WithCancel(context.Background())
	m := &liveNode{Node: newMember(c.t, c.net, c.clk, cfg), t: c.t, cancel: cancel, done: make(chan error, 1)}
	c.clk.actors(1)
	go func() {
		err := m.Run(ctx)
		c.clk.actors(-1)
		m.done <- err
	}()
	c.t.Cleanup(m.stop)
	c.members = append(c.members, m)
	return m
}

// stop shuts the member down and waits for full quiescence: Run has
// returned and Node.Close has joined any in-flight replication session,
// so the member's states are safe to read afterwards. Run must end by
// the cancel and nothing else: a role loop that quits early, or with
// its own error, fails the story. Idempotent; safe off the test
// goroutine (a fabric tap kills members from the client's writes).
func (m *liveNode) stop() {
	m.once.Do(func() {
		m.cancel()
		if err := <-m.done; !errors.Is(err, context.Canceled) {
			m.t.Errorf("%s: Run returned %v, want context.Canceled", m.cfg.Addr, err)
		}
		m.Close()
	})
}

// restart brings a stopped member back from its own disks.
func (c *cluster) restart(m *liveNode, seed int64) {
	for i, x := range c.members {
		if x == m {
			c.members = append(c.members[:i:i], c.members[i+1:]...)
			break
		}
	}
	cfg := m.cfg
	cfg.Seed = seed
	c.start(cfg)
	c.net.setDown(cfg.Addr, false)
}

func (c *cluster) member(addr string) *liveNode {
	for _, m := range c.members {
		if m.cfg.Addr == addr {
			return m
		}
	}
	return nil
}

func (c *cluster) leader() *liveNode {
	for _, m := range c.members {
		if m.Role() == RoleLeader {
			return m
		}
	}
	return nil
}

func (c *cluster) hasLeader() bool { return c.leader() != nil }

// converged holds once every member is at the workload's height under
// exactly one leader.
func (c *cluster) converged() bool {
	leaders := 0
	for _, m := range c.members {
		if m.Follower().Seq() != uint64(len(c.w.Batches)) {
			return false
		}
		if m.Role() == RoleLeader {
			leaders++
		}
	}
	return leaders == 1
}

// client builds a failover client over the fabric on the manual clock,
// with retry timings matched to fastTiming's leases.
func (c *cluster) client(seed int64) *Client {
	var addrs []string
	for _, m := range c.members {
		addrs = append(addrs, m.cfg.Addr)
	}
	cl, err := NewClient(ClientConfig{
		Nodes:       addrs,
		Dial:        c.net.dialerFor("client"),
		AckTimeout:  time.Second,
		MaxAttempts: 25,
		Seed:        seed,
		Backoff:     &Backoff{Base: 2 * time.Millisecond, Max: 40 * time.Millisecond, Multiplier: 2},
		Clock:       c.clk,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	return cl
}

// clientRun is a client running in the background.
type clientRun struct {
	finished atomic.Bool
	err      error // set before finished
}

func (r *clientRun) done() bool { return r.finished.Load() }

// runClient runs cl over batches in the background, an actor on the
// clock until it returns.
func (c *cluster) runClient(cl *Client, batches [][]graph.Update) *clientRun {
	r := &clientRun{}
	c.clk.actors(1)
	go func() {
		r.err = cl.Run(context.Background(), batches)
		c.clk.actors(-1)
		r.finished.Store(true)
	}()
	return r
}

// feed runs cl over batches to completion on the manual clock.
func (c *cluster) feed(cl *Client, batches [][]graph.Update) {
	c.t.Helper()
	r := c.runClient(cl, batches)
	driveUntil(c.t, c.clk, fmt.Sprintf("client through batch %d", len(batches)), r.done)
	if r.err != nil {
		c.t.Fatalf("client did not finish batch %d: %v", len(batches), r.err)
	}
}

// end quiesces every member and hands the story to the oracle.
func (c *cluster) end(cl *Client, pinned map[string]uint64) digest {
	c.t.Helper()
	var members []survivor
	for _, m := range c.members {
		m.stop()
		members = append(members, followerOf(m.cfg.Addr, m.Follower()))
	}
	return oracle(c.t, ending{w: c.w, log: c.net.log, acked: cl.Acked(), finished: true, members: members, pinned: pinned})
}

// survivor is one member's durable state, read once it has quiesced.
type survivor struct {
	name string
	wal  wal.Options
	pipe *serve.Pipeline
}

func followerOf(name string, f *Follower) survivor {
	return survivor{name: name, wal: f.cfg.Pipeline.WAL, pipe: f.Pipeline()}
}

// ending is what a chaos story hands the oracle.
type ending struct {
	w        *stream.Workload
	log      *electionLog      // the fabric's; nil when no Node ran
	acked    uint64            // batches the story's client had acknowledged
	finished bool              // the client ran to the end of the workload
	members  []survivor        // every surviving member, quiesced
	pinned   map[string]uint64 // story counters the digest fixes
}

// digest is everything a story decided that must reproduce run to run.
// Which member wins an election is scheduling and is checked for
// legality, not pinned; the converged data must be bit-identical.
type digest struct {
	acked, height, stateHash uint64
	pinned                   string
}

// oracle checks, once, the invariants every chaos story must end in:
//
//  1. at most one leader per term across the event history, and a
//     story that ran Nodes recorded at least one election;
//  2. every survivor ends at the workload's height, and every record
//     its WAL still retains is byte for byte the batch at its sequence;
//  3. a client that finished was acknowledged every batch, and no
//     survivor's height is below what the client was acknowledged;
//  4. each survivor's term ledger holds at most one entry past its log
//     end, and the survivors agree on every batch's origin term;
//  5. every survivor's states are Float64bits-identical to an
//     uninterrupted run's;
//  6. every survivor's engine passes its own state invariant (Audit):
//     clause 5 compares states only, this one each survivor's parent
//     forest as well, after whatever crash, reseed or promotion built it.
func oracle(t *testing.T, e ending) digest {
	t.Helper()
	height := uint64(len(e.w.Batches))
	want := referenceStates(e.w)
	if e.log != nil {
		e.log.mu.Lock()
		if len(e.log.elected) == 0 {
			t.Error("no election recorded")
		}
		for term, leaders := range e.log.elected {
			if len(leaders) > 1 {
				t.Errorf("term %d claimed by %d leaders: %v", term, len(leaders), leaders)
			}
		}
		e.log.mu.Unlock()
	}
	if e.finished && e.acked != height {
		t.Errorf("client finished with %d of %d batches acked", e.acked, height)
	}
	var first TermState
	for i, m := range e.members {
		seq := m.pipe.Seq()
		if seq != height || e.acked > seq {
			t.Errorf("%s ended at seq %d, want the height %d (client acked %d)", m.name, seq, height, e.acked)
		}
		checkRetained(t, m, e.w)
		fs := m.wal.FS
		if fs == nil {
			fs = wal.OSFS{}
		}
		st, err := LoadTermState(fs, m.wal.Dir)
		ahead := 0
		for _, b := range st.Ledger {
			if b.Base > seq {
				ahead++
			}
		}
		if err != nil || ahead > 1 {
			t.Errorf("%s: ledger %+v runs %d entries past log end %d (%v)", m.name, st.Ledger, ahead, seq, err)
		}
		if i == 0 {
			first = st
		}
		for at := uint64(1); at <= height; at++ {
			if st.At(at) != first.At(at) {
				t.Errorf("%s: batch %d originates at term %d, %s says %d", m.name, at, st.At(at), e.members[0].name, first.At(at))
				break
			}
		}
		if !statesEqual(m.pipe.Session().States(), want) {
			t.Errorf("%s diverged from the uninterrupted run", m.name)
		}
		if v, ok := m.pipe.Session().Audit(); !ok {
			t.Errorf("%s: the state invariant fails at vertex %d", m.name, v)
		}
	}
	if t.Failed() {
		if e.log != nil {
			e.log.mu.Lock()
			for _, l := range e.log.lines {
				t.Log(l)
			}
			e.log.mu.Unlock()
		}
		t.FailNow()
	}
	return digest{acked: e.acked, height: height,
		stateHash: hashStates(e.members[0].pipe.Session().States()), pinned: fmt.Sprint(e.pinned)}
}

// checkRetained compares every record m's WAL still holds with the
// workload batch at its sequence: a wrong payload logged at the right
// sequence passes every height and state check.
func checkRetained(t *testing.T, m survivor, w *stream.Workload) {
	t.Helper()
	start, err := wal.StartSeq(m.wal)
	end, eerr := wal.EndSeq(m.wal)
	if err != nil || eerr != nil {
		t.Errorf("%s: reading the WAL bounds: %v, %v", m.name, err, eerr)
		return
	}
	tl := wal.NewTailer(m.wal, start)
	defer tl.Close()
	for want := start; start > 0 && want <= end; want++ {
		seq, payload, err := tl.Next()
		if err != nil || seq != want || seq > uint64(len(w.Batches)) ||
			!bytes.Equal(payload, wal.EncodeBatch(w.Batches[seq-1])) {
			t.Errorf("%s: WAL record %d (read %d, %v) is not the workload's batch %d", m.name, want, seq, err, want)
			return
		}
	}
}

// pin reads the named counters a story's digest fixes.
func pin(col *stats.Collector, names ...string) map[string]uint64 {
	out := make(map[string]uint64, len(names))
	for _, name := range names {
		out[name] = col.Get(name)
	}
	return out
}

func hashStates(states []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, s := range states {
		h ^= math.Float64bits(s)
		h *= 1099511628211
	}
	return h
}

// twice runs a story twice and requires equal digests.
func twice(t *testing.T, run func(t *testing.T) digest) {
	t.Helper()
	if first, second := run(t), run(t); first != second {
		t.Fatalf("not deterministic: %+v vs %+v", first, second)
	}
}

// trials runs n seeded trials of a story as subtests, each twice.
func trials(t *testing.T, n int, run func(t *testing.T, trial int) digest) {
	for trial := 0; trial < n; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			twice(t, func(t *testing.T) digest { return run(t, trial) })
		})
	}
}
