package fault

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
)

// Conn is a net.Conn with seeded wire faults: duplicated frames, a
// connection cut mid-record, a deaf read side. Faults act per Write
// call, and the replication protocol frames one message per Write, so a
// duplicated Write is a duplicated frame. Every fault starts off; its
// switch takes the conn's own lock, so a test may turn one on mid-run.
// Conn is safe for one concurrent reader plus one concurrent writer,
// like net.Conn itself.
type Conn struct {
	net.Conn
	rng *rand.Rand

	mu        sync.Mutex
	dup       float64
	trunc     int64 // bytes left before the cut; <0 while off
	recvAfter int   // Reads before the partition; <0 while off
	reads     int
	deaf      bool
	dead      bool
}

// NewConn wraps c with every fault off. Duplicates draw from an rng of
// their own, seeded from seed mixed with a constant, so the placement on
// one connection depends on nothing but its seed and its frames.
func NewConn(c net.Conn, seed int64) *Conn {
	return &Conn{Conn: c, rng: rand.New(rand.NewSource(seed ^ 0x5851F42D4C957F2D)), trunc: -1, recvAfter: -1}
}

// Dup sends each written frame twice with probability rate.
func (fc *Conn) Dup(rate float64) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.dup = rate
}

// Trunc kills the connection mid-frame: the Write crossing the next n
// bytes delivers only a prefix and the connection closes under the
// writer.
func (fc *Conn) Trunc(n int64) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.trunc = n
}

// PartitionRecv partitions the read side after n more Reads: writes
// still flow, reads fail for good — a primary that can talk but never
// hears acknowledgements, or a follower that hears records it can no
// longer ack.
func (fc *Conn) PartitionRecv(n int) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.recvAfter, fc.reads = n, 0
}

// Write applies the faults in a fixed order — truncate, then duplicate —
// so a fault schedule is a pure function of the seed and the frame
// sequence.
func (fc *Conn) Write(p []byte) (int, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.dead {
		return 0, fmt.Errorf("fault: connection partitioned: %w", ErrInjected)
	}
	if fc.trunc >= 0 {
		if int64(len(p)) > fc.trunc {
			// Kill mid-record: a prefix escapes onto the wire, then the
			// connection dies under the writer.
			if fc.trunc > 0 {
				//tdgraph:allow lockhold the injector mangles frames in order under its lock; the wrapped Write waits no longer than an unwrapped one: until the caller's deadline, set through the embedded Conn, or the peer closing
				fc.Conn.Write(p[:fc.trunc])
			}
			fc.trunc = 0
			fc.dead = true
			fc.Conn.Close()
			return 0, fmt.Errorf("fault: frame truncated on the wire: %w", ErrInjected)
		}
		fc.trunc -= int64(len(p))
	}
	sends := 1
	if fc.dup > 0 && fc.rng.Float64() < fc.dup {
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

func (fc *Conn) Read(p []byte) (int, error) {
	fc.mu.Lock()
	if fc.dead || fc.deaf {
		fc.mu.Unlock()
		return 0, fmt.Errorf("fault: connection partitioned: %w", ErrInjected)
	}
	fc.reads++
	if fc.recvAfter >= 0 && fc.reads > fc.recvAfter {
		fc.deaf = true
		fc.mu.Unlock()
		return 0, fmt.Errorf("fault: connection partitioned: %w", ErrInjected)
	}
	fc.mu.Unlock()
	return fc.Conn.Read(p)
}

func (fc *Conn) Close() error {
	fc.mu.Lock()
	fc.dead = true
	fc.mu.Unlock()
	return fc.Conn.Close()
}
