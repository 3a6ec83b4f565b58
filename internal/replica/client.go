package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// ErrNotLeader reports a submission refused by a node that is not the
// cluster's leader. The refusal usually carries a redirect hint; when
// it does, the error is a *RedirectError wrapping this sentinel, so
// errors.Is(err, ErrNotLeader) is the one check and errors.As recovers
// the address.
var ErrNotLeader = errors.New("replica: not the leader")

// RedirectError is a not-the-leader refusal carrying the refusing
// node's best guess at the current leader's address — empty when it
// has none (mid-election, or a cluster that never had a leader). It
// wraps ErrNotLeader.
type RedirectError struct {
	Leader string
}

func (e *RedirectError) Error() string {
	if e.Leader == "" {
		return "replica: not the leader (no leader known)"
	}
	return "replica: not the leader (try " + e.Leader + ")"
}

func (e *RedirectError) Unwrap() error { return ErrNotLeader }

// BusyError is a backpressure refusal from the leader itself: the node
// leads the cluster but will not take this batch right now. Reason is
// the wire marker without its bang — "disk" (read-only under disk
// pressure), "slo" (admission control shedding) or "quorum" (a fresh
// leader still attaching its followers) — and RetryAfter the
// leader's hint for when to try again. It unwraps to the serve-layer
// sentinel matching its reason so callers keep one errors.Is check,
// and exposes the hint through RetryAfterHint for the retry layer's
// backoff floor.
type BusyError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("replica: leader busy (%s), retry after %v", e.Reason, e.RetryAfter)
}

func (e *BusyError) Unwrap() error {
	switch e.Reason {
	case "disk":
		return serve.ErrDiskPressure
	case "slo":
		return serve.ErrShed
	}
	return nil
}

// RetryAfterHint implements the serve retry layer's backoff floor.
func (e *BusyError) RetryAfterHint() time.Duration { return e.RetryAfter }

// ClientConfig parameterises a failover-aware ingestion client.
type ClientConfig struct {
	// Nodes are cluster addresses to try, in order; redirects learned
	// from Reject frames take precedence over rotation.
	Nodes []string
	// Dial opens a connection to a node address.
	Dial func(addr string) (net.Conn, error)
	// AckTimeout bounds one hello or submit round trip (default 5s).
	AckTimeout time.Duration
	// BatchDeadline, when positive, is each submission attempt's time
	// budget: it travels in the Submit frame as remaining milliseconds
	// so the leader can stop waiting on a stalled quorum, and it bounds
	// the client's own round-trip wait (a local expiry surfaces
	// *serve.DeadlineError at stage "submit"). 0 means no deadline —
	// attempts are bounded only by AckTimeout.
	BatchDeadline time.Duration
	// MaxAttempts bounds tries per batch across reconnects and
	// redirects (default 8, the RetrySource default). Exhaustion
	// surfaces serve.ErrSourceGivenUp wrapping the last failure.
	MaxAttempts int
	// Seed feeds the retry backoff jitter.
	Seed int64
	// Backoff overrides the retry backoff schedule (nil = the serve
	// defaults, seeded from Seed).
	Backoff *serve.Backoff
	// Breaker overrides the retry circuit breaker (nil = the serve
	// defaults). Failover makes refusals routine, so deployments with
	// tight latency budgets want a shorter reset than the default 5s.
	Breaker *serve.Breaker
	// Clock supplies waits and I/O deadlines (default real time).
	Clock serve.Clock
	// OnEvent receives one line per notable event (nil discards).
	OnEvent func(string)
}

// Client submits update batches to whichever node currently leads the
// cluster, following redirect hints and retrying with bounded backoff
// when leadership moves. It assumes the single-writer contract the
// serve layer already has: this client is the only ingest source, so
// its 1-based batch indices coincide with the cluster's WAL sequences
// and the leader's durable sequence says exactly which batches are
// acknowledged. That is what makes failover exactly-once: after a
// reconnect the Welcome (or any ack) tells the client which prefix is
// durable, already-durable submissions are re-acked without
// re-applying, and everything after the prefix is safe to resubmit.
// Not safe for concurrent use.
type Client struct {
	cfg   ClientConfig
	conn  net.Conn
	addr  string // address currently believed to lead ("" = rotate)
	next  int    // rotation cursor into cfg.Nodes
	acked uint64 // highest durable sequence the cluster confirmed
}

// NewClient returns a client over the given cluster addresses.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("replica: client needs at least one node address")
	}
	if cfg.Dial == nil {
		return nil, errors.New("replica: client needs a dialer")
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = serve.RealClock{}
	}
	if cfg.OnEvent == nil {
		cfg.OnEvent = func(string) {}
	}
	return &Client{cfg: cfg}, nil
}

// Acked returns the highest batch index the cluster has acknowledged
// as quorum-durable.
func (c *Client) Acked() uint64 { return c.acked }

// Run submits every batch in order and returns once all are
// quorum-durable on the cluster. Failures — dead nodes, severed
// connections, leadership changes — are retried through
// serve.RetrySource with its exponential backoff, jitter and breaker;
// a batch that exhausts the attempt budget surfaces
// serve.ErrSourceGivenUp wrapping the final cause. Batches the cluster
// already holds (a rerun after a partial failure) are skipped, not
// re-applied.
func (c *Client) Run(ctx context.Context, batches [][]graph.Update) error {
	i := 0
	submitNext := serve.FuncSource(func(ctx context.Context) ([]graph.Update, error) {
		for i < len(batches) && uint64(i+1) <= c.acked {
			i++ // already durable: confirmed by a Welcome or an ack
		}
		if i >= len(batches) {
			return nil, io.EOF
		}
		if err := c.submit(ctx, uint64(i+1), batches[i]); err != nil {
			if errors.Is(err, io.EOF) {
				// A node that dies between frames (kill -9: the kernel
				// closes its sockets) reads as a bare io.EOF, which the
				// retry layer would take for the end of the stream.
				err = fmt.Errorf("replica: client: connection closed awaiting batch %d: %w", i+1, io.ErrUnexpectedEOF)
			}
			return nil, err
		}
		b := batches[i]
		i++
		return b, nil
	})
	src := serve.NewRetrySource(submitNext, c.cfg.Backoff, c.cfg.Breaker, c.cfg.Clock, c.cfg.Seed)
	if c.cfg.MaxAttempts > 0 {
		src.MaxAttempts = c.cfg.MaxAttempts
	}
	defer c.dropConn()
	for {
		if _, err := src.Next(ctx); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// submit makes batch idx durable on the cluster: connect (following
// any redirect learned so far), skip if the handshake shows it already
// durable, otherwise one Submit/Ack round trip. Every failure path
// leaves the client aimed at its best guess of the leader and returns
// the error for the retry layer to absorb.
func (c *Client) submit(ctx context.Context, idx uint64, batch []graph.Update) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return err
		}
	}
	if idx <= c.acked {
		return nil // the handshake revealed it durable; nothing to send
	}
	fr := Frame{Type: FrameSubmit, Seq: idx, Payload: wal.EncodeBatch(batch)}
	wait := c.cfg.AckTimeout
	deadlineBound := false
	if d := c.cfg.BatchDeadline; d > 0 {
		fr.Orig = deadlineMillis(d)
		if d < wait {
			wait, deadlineBound = d, true
		}
	}
	c.conn.SetDeadline(c.cfg.Clock.Now().Add(wait))
	err := WriteFrame(c.conn, fr)
	var ans Frame
	if err == nil {
		ans, err = ReadFrame(c.conn)
	}
	c.conn.SetDeadline(time.Time{})
	if err != nil {
		c.dropConn() // reconnect decides whether the node is still there
		if deadlineBound && isTimeout(err) {
			// The batch deadline, not the transport, was the binding
			// bound: surface the typed expiry so callers can tell a
			// blown budget from a dead leader.
			return fmt.Errorf("replica: client: batch %d deadline (%v) expired in flight: %w",
				idx, c.cfg.BatchDeadline, serve.NewDeadlineError("submit"))
		}
		return err
	}
	switch ans.Type {
	case FrameAck:
		if ans.Seq > c.acked {
			c.acked = ans.Seq
		}
		if c.acked >= idx {
			return nil
		}
		return fmt.Errorf("replica: client: ack at seq %d below submitted %d", ans.Seq, idx)
	case FrameReject:
		if ans.Orig > 0 {
			return c.busy(ans, idx)
		}
		return c.redirect(ans, "submit")
	default:
		c.dropConn()
		return &FrameError{Reason: "submit answer",
			Err: fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, ans.Type)}
	}
}

// connect dials the current leader guess (or the next node in
// rotation), performs the ClientHello handshake, and adopts the
// durable sequence the Welcome reports.
func (c *Client) connect() error {
	addr := c.addr
	if addr == "" {
		addr = c.cfg.Nodes[c.next%len(c.cfg.Nodes)]
		c.next++
	}
	conn, err := c.cfg.Dial(addr)
	if err != nil {
		c.addr = "" // dead node: rotate on the next attempt
		return err
	}
	conn.SetDeadline(c.cfg.Clock.Now().Add(c.cfg.AckTimeout))
	werr := WriteFrame(conn, Frame{Type: FrameClientHello})
	var ans Frame
	if werr == nil {
		ans, werr = ReadFrame(conn)
	}
	conn.SetDeadline(time.Time{})
	if werr != nil {
		conn.Close()
		c.addr = ""
		return werr
	}
	c.conn, c.addr = conn, addr
	switch ans.Type {
	case FrameWelcome:
		if ans.Seq > c.acked {
			c.acked = ans.Seq
		}
		c.cfg.OnEvent(fmt.Sprintf("attached to leader %s at seq %d", addr, ans.Seq))
		return nil
	case FrameReject:
		return c.redirect(ans, "hello")
	default:
		c.dropConn()
		return &FrameError{Reason: "hello answer",
			Err: fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, ans.Type)}
	}
}

// busy consumes a backpressure Reject (Orig > 0): the node leads the
// cluster but refuses this batch. The session stays open — the leader
// is healthy and the refusal is about load, not leadership — and Seq
// still carries the durable sequence, so adopt it to avoid
// resubmitting batches the cluster already holds. The typed error
// carries the leader's retry-after hint, which the retry layer floors
// its backoff at.
func (c *Client) busy(ans Frame, idx uint64) error {
	if ans.Seq > c.acked {
		c.acked = ans.Seq
	}
	after := time.Duration(ans.Orig) * time.Millisecond
	marker := string(ans.Payload)
	var err error
	switch {
	case strings.HasPrefix(marker, "!deadline:"):
		err = serve.NewDeadlineError(strings.TrimPrefix(marker, "!deadline:"))
	default:
		// "!disk", "!slo", and whatever a newer server invents: a
		// generic busy refusal whose reason is the marker sans bang.
		err = &BusyError{Reason: strings.TrimPrefix(marker, "!"), RetryAfter: after}
	}
	c.cfg.OnEvent(fmt.Sprintf("batch %d refused by %s: %v", idx, c.addr, err))
	return err
}

// deadlineMillis encodes a remaining time budget as whole milliseconds
// for the Submit frame, rounding sub-millisecond budgets up to 1 so a
// tiny deadline still travels (0 on the wire means no deadline).
func deadlineMillis(d time.Duration) uint64 {
	ms := uint64(d / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	return ms
}

// isTimeout reports whether err is an I/O deadline expiry rather than
// a transport failure.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// redirect consumes a Reject frame: aim at the hinted leader when the
// refusing node knows one, otherwise fall back to rotation, and report
// the refusal as a *RedirectError for the retry layer.
func (c *Client) redirect(ans Frame, stage string) error {
	was := c.addr
	c.dropConn()
	hint := string(ans.Payload)
	if hint != "" && hint != was {
		c.addr = hint
	} else {
		c.addr = ""
	}
	rerr := &RedirectError{Leader: hint}
	c.cfg.OnEvent(fmt.Sprintf("%s refused by %s: %v", stage, was, rerr))
	return rerr
}

// dropConn closes and forgets the current connection, keeping the
// current leader guess.
func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}
