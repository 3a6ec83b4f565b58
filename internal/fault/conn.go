package fault

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
)

// This file is the replication-transport fault surface: Injector.Conn
// wraps a net.Conn with seeded network pathologies so the replica
// chaos suite can replay a duplicating or dying wire from a seed, and
// election chaos can replay net-partition-recv, the asymmetric split
// where a node can send but never hear. Faults act per Write call —
// the replication protocol frames one message per Write, so a
// duplicated Write is a duplicated frame, and net-trunc kills the
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
	if n, ok := in.armed[NetPartitionRecv]; ok {
		fc.recvAfter, fc.haveRecv = int(n), true
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
	reads           int
	recvAfter       int
	haveRecv        bool
	recvPartitioned bool
	truncBudget     int64
	haveTrunc       bool
	dead            bool
}

// Write applies the armed classes in a fixed order — truncate, then
// duplicate — so a fault schedule is a pure function of the seed and
// the frame sequence.
func (fc *faultConn) Write(p []byte) (int, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.dead {
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
			fc.Conn.Close()
			return 0, fmt.Errorf("fault: frame truncated on the wire: %w", ErrInjected)
		}
		fc.truncBudget -= int64(len(p))
	}
	sends := 1
	if rate, ok := fc.in.armed[NetDup]; ok && fc.rng.Float64() < rate {
		sends = 2
	}
	for ; sends > 0; sends-- {
		//tdgraph:allow lockhold the injector mangles frames in order under its lock; the wrapped Write waits no longer than an unwrapped one: until the caller's deadline, set through the embedded Conn, or the peer closing
		if _, err := fc.Conn.Write(p); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (fc *faultConn) Read(p []byte) (int, error) {
	fc.mu.Lock()
	if fc.dead || fc.recvPartitioned {
		fc.mu.Unlock()
		return 0, fmt.Errorf("fault: connection partitioned: %w", ErrInjected)
	}
	fc.reads++
	if fc.haveRecv && fc.reads > fc.recvAfter {
		fc.recvPartitioned = true
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
