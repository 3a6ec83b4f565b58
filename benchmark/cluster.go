package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/replica"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// sessionOptions is how every session in the benchmark — members,
// reference, ladder rungs — is configured: the production native
// engine, no validation, cores left at the session default.
var sessionOptions = tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel}

// newSession bootstraps one SSSP-from-vertex-0 session on the warm-up
// graph: the one-time fixpoint every member and the reference pay.
func newSession(in *inputs) (*tdgraph.Session, error) {
	return tdgraph.NewSession(tdgraph.NewSSSP(0), in.Warmup, in.Spec.Graph.Vertices, sessionOptions)
}

// pipelineConfig is one member's durable pipeline over dir: WAL
// sync=batch with 4 MiB segments and rotating checkpoints, the shape
// `tdgraph-serve -role auto` runs. fs is the WAL filesystem seam (nil =
// the real one).
func pipelineConfig(in *inputs, dir string, ckptEvery int, fs wal.FS) (serve.PipelineConfig, error) {
	walDir := filepath.Join(dir, "wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return serve.PipelineConfig{}, err
	}
	return serve.PipelineConfig{
		Bootstrap:       func() (*tdgraph.Session, error) { return newSession(in) },
		Algorithm:       tdgraph.NewSSSP(0),
		SessionOptions:  sessionOptions,
		WAL:             wal.Options{Dir: walDir, Sync: wal.SyncEachBatch, SegmentBytes: 4 << 20, FS: fs},
		CheckpointPath:  filepath.Join(dir, "ckpt.tds"),
		CheckpointEvery: ckptEvery,
	}, nil
}

// member is one in-process replica.Node with its own listener.
type member struct {
	name string
	node *replica.Node
	ln   net.Listener
}

// cluster is an in-process replica set on loopback TCP. Members know
// each other by logical names (m0, m1, ...) that the dial function maps
// to the listeners, so the address-seeded election splay — and with it
// which member leads — depends only on the seed, not on which ports the
// kernel handed out.
type cluster struct {
	members []*member
	addrs   map[string]string // logical name -> listener address
	started time.Time         // just before the first NewNode call
	tr      *tracer           // nil on untraced runs

	cancel context.CancelFunc
	wg     sync.WaitGroup // role loops, accept loops, connection handlers

	mu    sync.Mutex
	conns []net.Conn // accepted connections, closed at teardown
}

// startCluster stands up size members under root: listeners first (so
// every name is dialable before any node runs), then NewNode + Run +
// accept loop per member. HeartbeatEvery, LeaseTimeout and AckTimeout
// stay at the node defaults (1 s / 4 s / 5 s): a shorter lease lets a
// follower's inline checkpoint outlast it and depose a healthy leader.
func startCluster(in *inputs, size int, root string, tr *tracer) (*cluster, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{addrs: map[string]string{}, tr: tr, cancel: cancel}
	names := make([]string, size)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.members = append(c.members, &member{name: names[i], ln: ln})
		c.addrs[names[i]] = ln.Addr().String()
	}
	c.started = time.Now()
	for i, m := range c.members {
		var fs wal.FS
		if tr != nil {
			fs = &timingFS{FS: wal.OSFS{}, member: m.name, tr: tr}
		}
		pcfg, err := pipelineConfig(in, filepath.Join(root, m.name), in.Spec.CkptEvery, fs)
		if err != nil {
			c.close()
			return nil, err
		}
		peers := append(append([]string(nil), names[:i]...), names[i+1:]...)
		node, err := replica.NewNode(replica.NodeConfig{
			Addr: m.name, Peers: peers, Dial: c.dialPeer, Pipeline: pcfg, Seed: in.Seed,
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("member %s: %w", m.name, err)
		}
		m.node = node
		c.wg.Add(2)
		go func() {
			defer c.wg.Done()
			_ = node.Run(ctx) // returns the context's error at teardown
		}()
		go c.accept(m)
	}
	return c, nil
}

// dial opens a plain connection to the named member: what the client
// driver uses.
func (c *cluster) dial(name string) (net.Conn, error) {
	addr, ok := c.addrs[name]
	if !ok {
		return nil, fmt.Errorf("benchmark: no member named %q", name)
	}
	return net.DialTimeout("tcp", addr, 5*time.Second)
}

// dialPeer is every member's NodeConfig.Dial: the same connection,
// behind the tracer's timing conn on traced runs.
func (c *cluster) dialPeer(name string) (net.Conn, error) {
	conn, err := c.dial(name)
	if err != nil || c.tr == nil {
		return conn, err
	}
	return c.tr.wrapConn(conn, name), nil
}

func (c *cluster) accept(m *member) {
	defer c.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // teardown closed the listener
		}
		c.mu.Lock()
		c.conns = append(c.conns, conn)
		c.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = m.node.HandleConn(conn) // session errors at teardown are expected
		}()
	}
}

// waitReady blocks until one member leads and every other member has
// adopted it as leader — adoption happens inside the attach handshake,
// which the leader runs under the same lock client ingest takes, so a
// submit sent after this returns queues behind the last attachment
// instead of racing it. Returns the leader's name.
func (c *cluster) waitReady(timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, m := range c.members {
			if m.node.Role() != replica.RoleLeader {
				continue
			}
			adopted := 0
			for _, o := range c.members {
				if o != m && o.node.Role() == replica.RoleFollower && o.node.LeaderAddr() == m.name {
					adopted++
				}
			}
			if adopted == len(c.members)-1 {
				return m.name, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return "", errors.New("benchmark: no leader attached every follower in time")
}

// counters sums every member's pipeline counters.
func (c *cluster) counters() map[string]uint64 {
	sum := map[string]uint64{}
	for _, m := range c.members {
		for k, v := range m.node.Follower().Pipeline().Collector().Snapshot() {
			sum[k] += v
		}
	}
	return sum
}

// close tears the cluster down and waits for every goroutine it
// started: stop the role loops, close each node (final WAL barrier and
// checkpoint), then the listeners and any connection still open.
func (c *cluster) close() error {
	c.cancel()
	var first error
	for _, m := range c.members {
		if m.node != nil {
			if err := m.node.Close(); err != nil && first == nil {
				first = fmt.Errorf("closing %s: %w", m.name, err)
			}
		}
		m.ln.Close()
	}
	c.mu.Lock()
	for _, conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return first
}

// verify is the correctness gate, run after close: every member's
// sequence equals the batches submitted, and every member's state
// vector is Float64bits-identical to the reference's.
func (c *cluster) verify(want []float64, submitted int) error {
	for _, m := range c.members {
		pipe := m.node.Follower().Pipeline()
		if got := pipe.Seq(); got != uint64(submitted) {
			return fmt.Errorf("member %s is at seq %d, %d batches were submitted", m.name, got, submitted)
		}
		got := pipe.Session().States()
		if len(got) != len(want) {
			return fmt.Errorf("member %s holds %d states, the reference %d", m.name, len(got), len(want))
		}
		for v := range got {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				return fmt.Errorf("member %s: state of vertex %d is %v, the reference computed %v", m.name, v, got[v], want[v])
			}
		}
	}
	return nil
}

// reference feeds the batches to one plain session — no WAL, no
// replication — and returns its final states: what every member must
// match bit for bit.
func reference(in *inputs, batches int) ([]float64, error) {
	s, err := newSession(in)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for i, b := range in.Batches[:batches] {
		if _, err := s.ApplyBatch(b); err != nil {
			return nil, fmt.Errorf("reference: batch %d: %w", i+1, err)
		}
	}
	return append([]float64(nil), s.States()...), nil
}
