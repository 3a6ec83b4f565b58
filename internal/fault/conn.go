package fault

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// This file is the replication-transport fault surface: Injector.Conn
// wraps a net.Conn with seeded network pathologies so the replica
// chaos suite can replay a lossy, reordering, partitioning wire from a
// seed. Partitions come in two shapes — net-partition (full, after N
// writes) and net-partition-recv (read-side only, after N reads: the
// asymmetric split where a node can send but never hear) — and
// net-heal un-splits either after a budget of blocked calls, so
// election chaos can replay one-way splits and recoveries.
// Faults act per Write call — the replication protocol frames one
// message per Write, so a dropped/duplicated/reordered Write is a
// dropped/duplicated/reordered frame, and net-trunc kills the
// connection mid-record on the wire.

// Conn wraps c with the armed net-* classes. Each wrapped connection
// draws from its own rng derived from the injector seed and the order
// Conn was called in, so fault placement on one connection does not
// depend on traffic volume on another. The wrapper is safe for one
// concurrent reader plus one concurrent writer, like net.Conn itself.
func (in *Injector) Conn(c net.Conn) net.Conn {
	fc := &faultConn{Conn: c, in: in}
	in.mu.Lock()
	idx := in.conns
	in.conns++
	in.mu.Unlock()
	fc.rng = rand.New(rand.NewSource(in.seed ^ (int64(idx)+1)*0x5851F42D4C957F2D))
	if n, ok := in.armed[NetPartition]; ok {
		fc.partitionAfter, fc.havePartition = int(n), true
	}
	if n, ok := in.armed[NetPartitionRecv]; ok {
		fc.recvAfter, fc.haveRecv = int(n), true
	}
	if n, ok := in.armed[NetHeal]; ok {
		fc.healAfter, fc.haveHeal = int(n), true
	}
	if b, ok := in.armed[NetTrunc]; ok {
		fc.truncBudget, fc.haveTrunc = int64(b), true
	}
	return fc
}

type faultConn struct {
	net.Conn
	in  *Injector
	rng *rand.Rand

	mu              sync.Mutex
	held            []byte // frame held back by net-reorder
	writes          int
	partitionAfter  int
	havePartition   bool
	partitioned     bool
	reads           int
	recvAfter       int
	haveRecv        bool
	recvPartitioned bool
	healAfter       int
	haveHeal        bool
	blockedOps      int
	truncBudget     int64
	haveTrunc       bool
	dead            bool
}

// blockedLocked records one I/O call refused by a live partition and,
// when NetHeal is armed, heals both partition kinds once the budget of
// blocked operations is spent: the Nth refused call still fails, the
// next one flows. Each partition class trips at most once, so a healed
// connection stays healed. Callers hold fc.mu.
func (fc *faultConn) blockedLocked() {
	fc.blockedOps++
	if fc.haveHeal && fc.blockedOps >= fc.healAfter {
		fc.partitioned = false
		fc.recvPartitioned = false
		fc.blockedOps = 0
		fc.in.count(NetHeal)
	}
}

// Write applies the armed classes in a fixed order — partition,
// truncate, drop, duplicate, reorder, delay — so a fault schedule is a
// pure function of the seed and the frame sequence.
func (fc *faultConn) Write(p []byte) (int, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.dead {
		return 0, fmt.Errorf("fault: connection partitioned: %w", ErrInjected)
	}
	if fc.partitioned {
		fc.blockedLocked()
		return 0, fmt.Errorf("fault: connection partitioned: %w", ErrInjected)
	}
	fc.writes++
	if fc.havePartition && fc.writes > fc.partitionAfter {
		fc.havePartition = false // trips once; a heal is permanent
		fc.partitioned = true
		fc.in.count(NetPartition)
		fc.blockedLocked()
		return 0, fmt.Errorf("fault: connection partitioned: %w", ErrInjected)
	}
	if fc.haveTrunc {
		if int64(len(p)) > fc.truncBudget {
			// Kill mid-record: a prefix escapes onto the wire, then the
			// connection dies under the writer.
			if fc.truncBudget > 0 {
				//tdgraph:allow lockhold the injector mangles frames in order under its lock; the wrapped Write waits no longer than an unwrapped one: until the caller's deadline, set through the embedded Conn, or the peer closing
				fc.Conn.Write(p[:fc.truncBudget])
			}
			fc.truncBudget = 0
			fc.dead = true
			fc.in.count(NetTrunc)
			fc.Conn.Close()
			return 0, fmt.Errorf("fault: frame truncated on the wire: %w", ErrInjected)
		}
		fc.truncBudget -= int64(len(p))
	}
	if p2, ok := fc.in.armed[NetDrop]; ok && fc.rng.Float64() < p2 {
		fc.in.count(NetDrop)
		return len(p), nil // frame vanishes; the writer never knows
	}
	dup := false
	if p2, ok := fc.in.armed[NetDup]; ok && fc.rng.Float64() < p2 {
		fc.in.count(NetDup)
		dup = true
	}
	reorder := false
	if p2, ok := fc.in.armed[NetReorder]; ok && fc.rng.Float64() < p2 {
		fc.in.count(NetReorder)
		reorder = true
	}
	if ms, ok := fc.in.armed[NetDelay]; ok {
		fc.in.count(NetDelay)
		//tdgraph:allow lockhold NetDelay stalls the connection under its lock on purpose: injected latency must serialize with the frames it delays
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}

	frame := append([]byte(nil), p...)
	var out [][]byte
	if reorder && fc.held == nil {
		// Hold this frame back; it goes out after the next one.
		fc.held = frame
		return len(p), nil
	}
	out = append(out, frame)
	if dup {
		out = append(out, frame)
	}
	if fc.held != nil {
		out = append(out, fc.held)
		fc.held = nil
	}
	for _, f := range out {
		//tdgraph:allow lockhold the injector mangles frames in order under its lock; the wrapped Write waits no longer than an unwrapped one: until the caller's deadline, set through the embedded Conn, or the peer closing
		if _, err := fc.Conn.Write(f); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (fc *faultConn) Read(p []byte) (int, error) {
	fc.mu.Lock()
	if fc.dead {
		fc.mu.Unlock()
		return 0, fmt.Errorf("fault: connection partitioned: %w", ErrInjected)
	}
	if fc.partitioned || fc.recvPartitioned {
		fc.blockedLocked()
		fc.mu.Unlock()
		return 0, fmt.Errorf("fault: connection partitioned: %w", ErrInjected)
	}
	fc.reads++
	if fc.haveRecv && fc.reads > fc.recvAfter {
		fc.haveRecv = false // trips once; a heal is permanent
		fc.recvPartitioned = true
		fc.in.count(NetPartitionRecv)
		fc.blockedLocked()
		fc.mu.Unlock()
		return 0, fmt.Errorf("fault: connection partitioned: %w", ErrInjected)
	}
	fc.mu.Unlock()
	return fc.Conn.Read(p)
}

func (fc *faultConn) Close() error {
	fc.mu.Lock()
	fc.dead = true
	fc.mu.Unlock()
	return fc.Conn.Close()
}
