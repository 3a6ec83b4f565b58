package replica

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// These trials drive the overload ladder end to end: a WAL volume that
// fills mid-ingest (read-only degradation, typed busy rejections,
// automatic resume) and a client deadline storm against a slow quorum
// (in-flight expiries, reconnect/adopt recovery, exactly-once). Like
// the rest of the chaos suites, each trial is run twice and the
// converged digest must be identical.

// stepWait polls pred while firing manual-clock timers, so trials that
// mix clock-driven machinery (heartbeats, retry backoff) with
// real-goroutine progress (pipe round trips) can wait for the latter
// without deadlocking the former.
func stepWait(t *testing.T, clk *manualClock, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		clk.step()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

type diskPressureDigest struct {
	acked     uint64
	height    uint64
	entries   uint64
	exits     uint64
	stateHash uint64
}

// runDiskPressureTrial fills the WAL volume mid-ingest on a solo
// leader, checks the busy-reject wire shape while the node is
// read-only, frees the space, and requires the client to finish with
// zero acked-batch loss — everything on the manual clock.
func runDiskPressureTrial(t *testing.T, trial int) diskPressureDigest {
	t.Helper()
	clk := newManualClock()
	fabric := newMemNet()
	w := testWorkload(t, 8)
	want := referenceStates(t, w)

	cfg := nodeConfig(w, t.TempDir())
	cfg.CheckpointEvery = -1 // no retention credits: only AddDiskSpace frees
	inj := fault.New(int64(40 + trial))
	// Room for the election's term record and roughly half the
	// workload's WAL records; the rest of the run hits ENOSPC.
	inj.Arm(fault.NoSpace, 1500)
	cfg.WAL.FS = inj.FS(wal.OSFS{})

	n, err := NewNode(NodeConfig{
		Addr:           "solo",
		Dial:           fabric.dial,
		Pipeline:       cfg,
		HeartbeatEvery: time.Second,
		Seed:           42,
		Clock:          clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	fabric.add("solo", n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- n.Run(ctx) }()
	driveUntil(t, clk, "solo leadership", func() bool { return n.Role() == RoleLeader })

	cl, err := NewClient(ClientConfig{
		Nodes:       []string{"solo"},
		Dial:        fabric.dial,
		AckTimeout:  time.Minute, // manual-clock epoch: conn deadlines never fire
		MaxAttempts: 500,
		Seed:        int64(trial),
		Backoff:     &serve.Backoff{Base: time.Millisecond, Max: 50 * time.Millisecond, Multiplier: 2},
		Breaker:     serve.NewBreaker(1000, 50*time.Millisecond, clk),
		Clock:       clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	var done atomic.Bool
	go func() {
		err := cl.Run(context.Background(), w.Batches)
		done.Store(true)
		clientDone <- err
	}()

	// The volume fills mid-run: the node must degrade to read-only and
	// keep refusing (typed, retryable) without crashing or demoting.
	col := n.Follower().Pipeline().Collector()
	stepWait(t, clk, "read-only under disk pressure", func() bool {
		return col.Get(stats.CtrServeReadonlyEntries) == 1 &&
			col.Get(stats.CtrServeDiskPressure) >= 1
	})
	if got := n.Role(); got != RoleLeader {
		t.Fatalf("disk pressure cost the node its leadership: %s", got)
	}
	if got := col.Get(stats.CtrServeReadonlyEntries); got != 1 {
		t.Fatalf("readonly entries = %d, want 1", got)
	}

	// Raw-frame probe of the busy reject: Orig > 0 (the retry-after
	// hint, distinguishing it from a redirect), the "!disk" marker, the
	// durable sequence — and the session must survive the refusal.
	conn, err := fabric.dial("solo")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, Frame{Type: FrameClientHello}); err != nil {
		t.Fatal(err)
	}
	fr, err := ReadFrame(conn)
	if err != nil || fr.Type != FrameWelcome {
		t.Fatalf("handshake while read-only: %+v, %v, want a Welcome", fr, err)
	}
	durable := fr.Seq
	if durable == 0 || durable >= uint64(len(w.Batches)) {
		t.Fatalf("durable seq %d at the fill, want mid-workload", durable)
	}
	for round := 0; round < 2; round++ {
		probe := Frame{Type: FrameSubmit, Seq: durable + 1, Payload: wal.EncodeBatch(w.Batches[durable])}
		if err := WriteFrame(conn, probe); err != nil {
			t.Fatalf("probe round %d: the busy reject dropped the session: %v", round, err)
		}
		ans, err := ReadFrame(conn)
		if err != nil || ans.Type != FrameReject {
			t.Fatalf("probe round %d: %+v, %v, want a Reject", round, ans, err)
		}
		if ans.Orig == 0 {
			t.Fatalf("probe round %d: busy reject lost its retry-after (reads as a redirect)", round)
		}
		if string(ans.Payload) != "!disk" {
			t.Fatalf("probe round %d: marker %q, want !disk", round, ans.Payload)
		}
		if ans.Seq != durable {
			t.Fatalf("probe round %d: reject seq %d, want durable %d", round, ans.Seq, durable)
		}
	}
	conn.Close()

	// An operator frees the volume: ingestion must resume on its own
	// and the client must finish with every batch acked exactly once.
	cfg.WAL.FS.(fault.DiskSpacer).AddDiskSpace(1 << 20)
	stepWait(t, clk, "client completion after space freed", done.Load)
	if err := <-clientDone; err != nil {
		t.Fatalf("client did not survive the fill: %v", err)
	}
	if got := cl.Acked(); got != uint64(len(w.Batches)) {
		t.Fatalf("client acked %d of %d batches", got, len(w.Batches))
	}
	entries := col.Get(stats.CtrServeReadonlyEntries)
	exits := col.Get(stats.CtrServeReadonlyExits)
	if entries != 1 || exits != 1 {
		t.Fatalf("readonly entries/exits = %d/%d, want exactly one episode", entries, exits)
	}

	// Quiesce, then compare against the uninterrupted run.
	cancel()
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("node run ended with %v", err)
	}
	n.Close()
	states := n.Follower().Pipeline().Session().States()
	if !statesEqual(states, want) {
		t.Fatal("fill-then-free run diverged from the uninterrupted reference")
	}
	return diskPressureDigest{
		acked:     cl.Acked(),
		height:    n.Follower().Seq(),
		entries:   entries,
		exits:     exits,
		stateHash: hashStates(states),
	}
}

// TestChaosDiskPressureFillThenFree: fill the WAL volume mid-ingest,
// verify the degradation ladder end to end, free the space, converge —
// twice, with identical digests.
func TestChaosDiskPressureFillThenFree(t *testing.T) {
	for trial := 0; trial < 2; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			first := runDiskPressureTrial(t, trial)
			second := runDiskPressureTrial(t, trial)
			if first != second {
				t.Fatalf("trial %d not deterministic: %+v vs %+v", trial, first, second)
			}
		})
	}
}

// startStormNode is startLiveNode with a lease long enough to survive
// heartbeat rounds that crawl through throttled follower writes.
func startStormNode(t *testing.T, fabric *chaosNet, elog *electionLog, w *stream.Workload,
	addr, dir string, peers []string, seed int64) *liveNode {
	t.Helper()
	cfg := nodeConfig(w, dir)
	n, err := NewNode(NodeConfig{
		Addr:           addr,
		Peers:          peers,
		Dial:           fabric.dialerFor(addr),
		Pipeline:       cfg,
		HeartbeatEvery: 10 * time.Millisecond,
		LeaseTimeout:   300 * time.Millisecond,
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

type stormDigest struct {
	acked     uint64
	height    uint64
	stateHash uint64
}

// runDeadlineStormTrial runs a client with a 15ms batch deadline
// against a cluster whose follower writes crawl at 50ms: every
// pre-heal submission outlives its budget in flight, so progress only
// happens through the deadline path — drop the connection on expiry,
// reconnect, adopt the Welcome's durable prefix, move on. Exactly-once
// must hold throughout, and healing the throttle must let the run
// finish and converge.
func runDeadlineStormTrial(t *testing.T, trial int) stormDigest {
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
	// Beta and gamma answer slowly from the start: every write they
	// make — replication acks, and client acks should one of them
	// lead — takes 50ms, while the client's deadline is 15ms.
	for _, a := range addrs[1:] {
		fabric.wrapInbound(a, func(c net.Conn) net.Conn {
			return throttleConn{Conn: c, d: 50 * time.Millisecond}
		})
	}
	var members []*liveNode
	for i, a := range addrs {
		members = append(members, startStormNode(t, fabric, elog, w, a, t.TempDir(), peersOf(a), int64(trial*100+i)))
	}
	defer func() {
		for _, m := range members {
			m.stop()
		}
	}()
	waitFor(t, 10*time.Second, "initial election", func() bool { return currentLeader(members) != nil })

	var attaches, refusals atomic.Int64
	dial := fabric.dialerFor("client")
	cl, err := NewClient(ClientConfig{
		Nodes:         addrs,
		Dial:          dial,
		AckTimeout:    time.Second,
		BatchDeadline: 15 * time.Millisecond,
		MaxAttempts:   50,
		Seed:          int64(trial),
		Backoff:       &serve.Backoff{Base: 2 * time.Millisecond, Max: 40 * time.Millisecond, Multiplier: 2},
		Breaker:       serve.NewBreaker(10, 50*time.Millisecond, nil),
		OnEvent: func(s string) {
			switch {
			case strings.HasPrefix(s, "attached to leader"):
				attaches.Add(1)
			case strings.Contains(s, "refused"):
				refusals.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	go func() { clientDone <- cl.Run(context.Background(), w.Batches) }()

	// Let the storm rage over the first half of the workload, then heal
	// the throttles (new connections run at pipe speed).
	waitFor(t, 20*time.Second, "progress through the storm", func() bool {
		for _, m := range members {
			if m.node.Follower().Seq() >= 8 {
				return true
			}
		}
		return false
	})
	stormAttaches := attaches.Load()
	for _, a := range addrs[1:] {
		fabric.wrapInbound(a, nil)
		fabric.sever(a)
	}

	if err := <-clientDone; err != nil {
		t.Fatalf("client did not survive the deadline storm: %v", err)
	}
	if got := cl.Acked(); got != uint64(len(w.Batches)) {
		t.Fatalf("client acked %d of %d batches", got, len(w.Batches))
	}
	// Every pre-heal submission expired in flight, so the client can
	// only have progressed by dropping and re-attaching: more than the
	// single initial attach proves the deadline path actually ran (no
	// member was killed and no election forced a reconnect otherwise).
	if stormAttaches < 3 {
		t.Fatalf("client attached %d times during the storm, want >= 3 (deadline path never exercised)", stormAttaches)
	}

	height := uint64(len(w.Batches))
	waitFor(t, 15*time.Second, "full cluster convergence", func() bool {
		for _, m := range members {
			if m.node.Follower().Seq() != height {
				return false
			}
		}
		return currentLeader(members) != nil
	})
	elog.checkOneLeaderPerTerm(t)

	// Quiesce before reading states (stop joins in-flight sessions).
	for _, m := range members {
		m.stop()
	}
	for _, m := range members {
		if !statesEqual(m.node.Follower().Pipeline().Session().States(), want) {
			t.Fatalf("%s diverged from the uninterrupted run", m.addr)
		}
	}
	return stormDigest{
		acked:     cl.Acked(),
		height:    height,
		stateHash: hashStates(members[0].node.Follower().Pipeline().Session().States()),
	}
}

// TestChaosDeadlineStorm: tight client deadlines against a slow
// quorum, healed mid-run — exactly-once completion, one leader per
// term, and a digest that reproduces run to run.
func TestChaosDeadlineStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second storm trial")
	}
	first := runDeadlineStormTrial(t, 1)
	second := runDeadlineStormTrial(t, 1)
	if first != second {
		t.Fatalf("storm trial not deterministic: %+v vs %+v", first, second)
	}
}

// TestNodeClientDeadlineExpiresInFlight pins the client half of the
// deadline contract without a cluster: a server that goes quiet after
// the handshake forces the in-flight expiry, which must surface as the
// typed submit-stage deadline error — not a generic transport failure.
func TestNodeClientDeadlineExpiresInFlight(t *testing.T) {
	srv, cli := net.Pipe()
	go func() {
		if fr, err := ReadFrame(srv); err != nil || fr.Type != FrameClientHello {
			return
		}
		WriteFrame(srv, Frame{Type: FrameWelcome, Term: 1, Seq: 0})
		ReadFrame(srv) // swallow the submit and never answer
	}()
	cl, err := NewClient(ClientConfig{
		Nodes:         []string{"mute"},
		Dial:          func(string) (net.Conn, error) { return cli, nil },
		AckTimeout:    time.Second,
		BatchDeadline: 20 * time.Millisecond,
		MaxAttempts:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t, 1)
	err = cl.Run(context.Background(), w.Batches)
	if !errors.Is(err, serve.ErrDeadline) {
		t.Fatalf("in-flight expiry surfaced as %v, want ErrDeadline", err)
	}
	var de *serve.DeadlineError
	if !errors.As(err, &de) || de.Stage != "submit" {
		t.Fatalf("deadline stage in %v, want submit", err)
	}
	if !errors.Is(err, serve.ErrSourceGivenUp) {
		t.Fatalf("exhausted budget must wrap ErrSourceGivenUp: %v", err)
	}
}
