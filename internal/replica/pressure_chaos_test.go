package replica

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// These trials drive the overload ladder end to end: a WAL volume that
// fills mid-ingest (read-only degradation, typed busy rejections,
// automatic resume) on the manual clock, and a client deadline storm
// against a slow quorum (in-flight expiries, reconnect/adopt recovery,
// exactly-once) on the wall clock. Like the rest of the chaos stories,
// each ends in the oracle and runs twice.

// runDiskPressureTrial fills the WAL volume mid-ingest on a solo
// leader, checks the busy-reject wire shape while the node is
// read-only, frees the space, and requires the client to finish with
// zero acked-batch loss.
func runDiskPressureTrial(t *testing.T, trial int) digest {
	w := testWorkload(t, 8)
	c := newCluster(t, w, newManualClock())
	cfg := nodeConfig(w, t.TempDir())
	cfg.CheckpointEvery = -1 // no retention credits: only AddDiskSpace frees
	inj := fault.New(int64(40 + trial))
	// Room for the election's term record and roughly half the
	// workload's WAL records; the rest of the run hits ENOSPC.
	inj.Arm(fault.NoSpace, 1500)
	cfg.WAL.FS = inj.FS(wal.OSFS{})
	n := c.start(NodeConfig{Addr: "solo", Pipeline: cfg, Seed: 42})
	driveUntil(t, c.clk, "solo leadership", c.hasLeader)

	cl, err := NewClient(ClientConfig{
		Nodes:       []string{"solo"},
		Dial:        c.net.dialerFor("client"),
		AckTimeout:  time.Minute, // manual-clock epoch: conn deadlines never fire
		MaxAttempts: 500,
		Seed:        int64(trial),
		Backoff:     &Backoff{Base: time.Millisecond, Max: 50 * time.Millisecond, Multiplier: 2},
		Breaker:     NewBreaker(1000, 50*time.Millisecond, c.clk),
		Clock:       c.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := c.runClient(cl, w.Batches)

	// The volume fills mid-run: the node must degrade to read-only and
	// keep refusing (typed, retryable) without crashing or demoting.
	col := n.Follower().Pipeline().Collector()
	driveUntil(t, c.clk, "read-only under disk pressure", func() bool {
		return col.Get(stats.CtrServeReadonlyEntries) == 1 &&
			col.Get(stats.CtrServeDiskPressure) >= 1
	})
	if got := n.Role(); got != RoleLeader {
		t.Fatalf("disk pressure cost the node its leadership: %s", got)
	}

	// Raw-frame probe of the busy reject: Orig > 0 (the retry-after
	// hint, distinguishing it from a redirect), the "!disk" marker, the
	// durable sequence — and the session must survive the refusal.
	conn, err := c.net.dial("solo")
	if err != nil {
		t.Fatal(err)
	}
	durable := clientHandshake(t, conn)
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
	driveUntil(t, c.clk, "client completion after space freed", run.done)
	if run.err != nil {
		t.Fatalf("client did not survive the fill: %v", run.err)
	}
	episode := pin(col, stats.CtrServeReadonlyEntries, stats.CtrServeReadonlyExits)
	if episode[stats.CtrServeReadonlyEntries] != 1 || episode[stats.CtrServeReadonlyExits] != 1 {
		t.Fatalf("readonly entries/exits = %v, want exactly one episode", episode)
	}
	return c.end(cl, episode)
}

// TestChaosDiskPressureFillThenFree: fill the WAL volume mid-ingest,
// verify the degradation ladder end to end, free the space, converge.
func TestChaosDiskPressureFillThenFree(t *testing.T) {
	trials(t, 2, runDiskPressureTrial)
}

// waitFor polls pred on the wall clock until it holds or d passes. Only
// the deadline storm waits this way: its subject, the client's in-flight
// expiry, is a net.Pipe conn deadline, and the pipe compares that with
// real time.
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

// throttleConn paces writes on the wall clock, for the deadline storm's
// slow quorum: the client's expiry it provokes is a real-time pipe
// deadline.
type throttleConn struct {
	net.Conn
	d time.Duration
}

func (c throttleConn) Write(p []byte) (int, error) {
	time.Sleep(c.d)
	return c.Conn.Write(p)
}

// runDeadlineStormTrial runs a client with a 15ms batch deadline
// against a cluster whose follower writes crawl at 50ms: every
// pre-heal submission outlives its budget in flight, so progress only
// happens through the deadline path — drop the connection on expiry,
// reconnect, adopt the Welcome's durable prefix, move on. Exactly-once
// must hold throughout, and healing the throttle must let the run
// finish and converge.
func runDeadlineStormTrial(t *testing.T, trial int) digest {
	w := testWorkload(t, 16)
	c := newCluster(t, w, nil)
	// Beta and gamma answer slowly from the start: every write they
	// make — replication acks, and client acks should one of them
	// lead — takes 50ms, while the client's deadline is 15ms.
	slow := []string{"beta", "gamma"}
	for _, a := range slow {
		c.net.wrapInbound(a, func(conn net.Conn) net.Conn {
			return throttleConn{Conn: conn, d: 50 * time.Millisecond}
		})
	}
	// A lease long enough to survive heartbeat rounds that crawl
	// through throttled follower writes.
	c.trio(NodeConfig{HeartbeatEvery: 10 * time.Millisecond, LeaseTimeout: 300 * time.Millisecond, AckTimeout: time.Second}, int64(trial*100))
	waitFor(t, 10*time.Second, "initial election", c.hasLeader)

	var attaches atomic.Int64
	cl, err := NewClient(ClientConfig{
		Nodes:         []string{"alpha", "beta", "gamma"},
		Dial:          c.net.dialerFor("client"),
		AckTimeout:    time.Second,
		BatchDeadline: 15 * time.Millisecond,
		MaxAttempts:   50,
		Seed:          int64(trial),
		Backoff:       &Backoff{Base: 2 * time.Millisecond, Max: 40 * time.Millisecond, Multiplier: 2},
		Breaker:       NewBreaker(10, 50*time.Millisecond, nil),
		OnEvent: func(s string) {
			if strings.HasPrefix(s, "attached to leader") {
				attaches.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := c.runClient(cl, w.Batches)

	// Let the storm rage over the first half of the workload, then heal
	// the throttles (new connections run at pipe speed).
	waitFor(t, 20*time.Second, "progress through the storm", func() bool {
		for _, m := range c.members {
			if m.Follower().Seq() >= 8 {
				return true
			}
		}
		return false
	})
	stormAttaches := attaches.Load()
	for _, a := range slow {
		c.net.wrapInbound(a, nil)
		c.net.sever(a)
	}
	waitFor(t, 30*time.Second, "client completion", run.done)
	if run.err != nil {
		t.Fatalf("client did not survive the deadline storm: %v", run.err)
	}
	// Every pre-heal submission expired in flight, so the client can
	// only have progressed by dropping and re-attaching: more than the
	// single initial attach proves the deadline path actually ran (no
	// member was killed and no election forced a reconnect otherwise).
	if stormAttaches < 3 {
		t.Fatalf("client attached %d times during the storm, want >= 3 (deadline path never exercised)", stormAttaches)
	}
	waitFor(t, 15*time.Second, "full cluster convergence", c.converged)
	return c.end(cl, nil)
}

// TestChaosDeadlineStorm: tight client deadlines against a slow
// quorum, healed mid-run.
func TestChaosDeadlineStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second storm trial")
	}
	twice(t, func(t *testing.T) digest { return runDeadlineStormTrial(t, 1) })
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
	if !errors.Is(err, ErrGivenUp) {
		t.Fatalf("exhausted budget must wrap ErrGivenUp: %v", err)
	}
}
