// Package fault is a deterministic, seeded fault injector for the
// robustness tests: it produces the hostile inputs a long-lived
// streaming deployment eventually sees — malformed updates, torn or
// bit-flipped checkpoints, failing I/O paths and wires — as
// reproducible functions of a seed, so every injection run (and every
// regression it uncovers) can be replayed exactly. The injector never
// decides how the pipeline reacts; the hardened targets
// (internal/stream validation, the CRC-checked checkpoint format in
// session_io.go, the WAL's recovery) do, and each is tested where it
// lives. Only tests import this package: a test builds an injector with
// New and arms the classes it needs with Arm.
package fault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// Class identifies one injectable fault class.
type Class string

const (
	// Duplicate re-appends updates verbatim (param: per-update rate).
	Duplicate Class = "dup"
	// Reorder shuffles the whole batch (param ignored; armed = on).
	Reorder Class = "reorder"
	// OutOfRange rewrites an endpoint to a vertex ID beyond the graph
	// (param: per-update rate). IDs land in [V, 2V+64] so an unvalidated
	// sink degrades gracefully instead of allocating unboundedly.
	OutOfRange Class = "oob"
	// SelfLoop rewrites updates into self-edges (param: per-update rate).
	SelfLoop Class = "selfloop"
	// CkptFlip flips bits in checkpoint bytes (param: number of flips).
	CkptFlip Class = "ckpt-flip"
	// CkptTruncate drops the checkpoint's tail (param: fraction removed).
	CkptTruncate Class = "ckpt-trunc"
	// ReadErr schedules a read failure (param: bytes before the error).
	ReadErr Class = "read-err"
	// WriteErr schedules a write failure (param: bytes before the error).
	WriteErr Class = "write-err"
	// WALTorn tears the write-ahead-log write crossing a global byte
	// offset (param: bytes before the tear): a prefix persists, the
	// rest vanishes mid-record. Armed through Injector.FS.
	WALTorn Class = "wal-torn"
	// FsyncErr fails WAL fsync barriers (param: successful fsyncs
	// before the failure). Armed through Injector.FS.
	FsyncErr Class = "fsync-err"
	// DiskFull fails WAL writes outright after a global byte budget
	// (param: bytes before the disk fills). Armed through Injector.FS.
	DiskFull Class = "disk-full"
	// NoSpace models a volume with finite capacity (param: capacity in
	// bytes): writes consume it, removing a file credits its bytes back
	// (so compaction genuinely frees space), and a write that does not
	// fit fails with ENOSPC semantics — an error wrapping both
	// ErrInjected and wal.ErrNoSpace, persisting nothing. Unlike
	// DiskFull the condition is recoverable: retention, Remove, or
	// DiskSpacer.AddDiskSpace can free room. Armed through Injector.FS.
	NoSpace Class = "enospc"
	// LowSpace arms the free-space probe only (param: capacity in
	// bytes): the FS reports capacity-minus-written through
	// wal.FreeSpacer so pressure ladders trip, but writes never fail.
	// Combine with NoSpace to also enforce the capacity. Armed through
	// Injector.FS.
	LowSpace Class = "low-space"
	// PartialSeg drops the tail of a serialised WAL segment (param:
	// fraction removed), the on-disk shape of a half-flushed segment.
	PartialSeg Class = "wal-partial"
	// NetDup sends written frames twice (param: per-frame rate). Armed
	// through Injector.Conn.
	NetDup Class = "net-dup"
	// NetTrunc kills the connection mid-frame: the write crossing a
	// global byte budget (param: bytes before the cut) delivers only a
	// prefix and the connection closes under the writer. Armed through
	// Injector.Conn.
	NetTrunc Class = "net-trunc"
	// NetPartitionRecv partitions the read side only after a number of
	// Read calls (param: reads before the partition): writes still
	// flow, reads fail — the asymmetric, one-way split where a primary
	// can talk but never hears acknowledgements (or a follower hears
	// records it can no longer ack). Armed through Injector.Conn.
	NetPartitionRecv Class = "net-partition-recv"
)

// ErrInjected is the sentinel every scheduled I/O failure wraps, so
// recovery paths can distinguish injected faults from real ones.
var ErrInjected = errors.New("fault: injected I/O error")

// Injector deterministically injects the armed fault classes. All
// randomness flows from the construction seed, so two injectors with the
// same seed and armed classes mutate identical inputs identically, in
// call order. The rng and batch/checkpoint mutators are single-goroutine
// like the pipeline that drives them; only Conn (whose wrappers carry
// their own derived rngs) is safe to call concurrently.
type Injector struct {
	seed  int64
	rng   *rand.Rand
	armed map[Class]float64

	mu    sync.Mutex
	conns int
}

// New returns an injector with no classes armed.
func New(seed int64) *Injector {
	return &Injector{
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		armed: make(map[Class]float64),
	}
}

// Arm enables a class with the given parameter.
func (in *Injector) Arm(c Class, param float64) { in.armed[c] = param }

func (in *Injector) hit(c Class) bool {
	p, ok := in.armed[c]
	return ok && in.rng.Float64() < p
}

// MutateBatch applies the armed stream-update classes to a copy of batch
// (the input is never modified). numVertices bounds the graph the batch
// targets; out-of-range injections land just beyond it.
func (in *Injector) MutateBatch(batch []graph.Update, numVertices int) []graph.Update {
	out := make([]graph.Update, len(batch), len(batch)+8)
	copy(out, batch)
	var dups []graph.Update
	for i := range out {
		u := &out[i]
		if in.hit(OutOfRange) {
			bad := graph.VertexID(numVertices + in.rng.Intn(numVertices+64))
			if in.rng.Intn(2) == 0 {
				u.Edge.Src = bad
			} else {
				u.Edge.Dst = bad
			}
		}
		if in.hit(SelfLoop) {
			u.Edge.Dst = u.Edge.Src
		}
		if in.hit(Duplicate) {
			dups = append(dups, *u)
		}
	}
	out = append(out, dups...)
	if _, ok := in.armed[Reorder]; ok {
		in.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// CorruptCheckpoint applies the armed checkpoint classes to a copy of the
// serialised bytes: CkptTruncate tears off the tail, CkptFlip flips bits.
func (in *Injector) CorruptCheckpoint(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if frac, ok := in.armed[CkptTruncate]; ok && len(out) > 0 {
		keep := len(out) - int(float64(len(out))*frac)
		if keep < 0 {
			keep = 0
		}
		if keep < len(out) {
			out = out[:keep]
		} else if len(out) > 0 {
			out = out[:len(out)-1] // always tear at least one byte
		}
	}
	if flips, ok := in.armed[CkptFlip]; ok && len(out) > 0 {
		for i := 0; i < int(flips); i++ {
			pos := in.rng.Intn(len(out))
			out[pos] ^= 1 << uint(in.rng.Intn(8))
		}
	}
	return out
}

// CorruptSegment applies the armed PartialSeg class to a copy of a
// serialised WAL segment: the tail fraction is dropped (at least one
// byte), leaving the half-flushed segment recovery must truncate.
func (in *Injector) CorruptSegment(data []byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	frac, ok := in.armed[PartialSeg]
	if !ok || len(out) == 0 {
		return out
	}
	keep := len(out) - int(float64(len(out))*frac)
	if keep < 0 {
		keep = 0
	}
	if keep >= len(out) {
		keep = len(out) - 1
	}
	return out[:keep]
}

// Reader wraps r with the armed ReadErr schedule: reads succeed for
// the armed number of bytes, then fail with an error wrapping ErrInjected.
// Disarmed, r is returned unchanged.
func (in *Injector) Reader(r io.Reader) io.Reader {
	limit, ok := in.armed[ReadErr]
	if !ok {
		return r
	}
	return &faultyReader{r: r, remaining: int64(limit)}
}

// Writer wraps w with the armed WriteErr schedule: writes succeed for
// the armed number of bytes, then fail with an error wrapping ErrInjected.
// Disarmed, w is returned unchanged.
func (in *Injector) Writer(w io.Writer) io.Writer {
	limit, ok := in.armed[WriteErr]
	if !ok {
		return w
	}
	return &faultyWriter{w: w, remaining: int64(limit)}
}

type faultyReader struct {
	r         io.Reader
	remaining int64
}

func (f *faultyReader) Read(p []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, fmt.Errorf("fault: scheduled read error: %w", ErrInjected)
	}
	if int64(len(p)) > f.remaining {
		p = p[:f.remaining]
	}
	n, err := f.r.Read(p)
	f.remaining -= int64(n)
	return n, err
}

type faultyWriter struct {
	w         io.Writer
	remaining int64
}

func (f *faultyWriter) Write(p []byte) (int, error) {
	if int64(len(p)) > f.remaining {
		n := 0
		if f.remaining > 0 {
			n, _ = f.w.Write(p[:f.remaining])
			f.remaining = 0
		}
		return n, fmt.Errorf("fault: scheduled write error: %w", ErrInjected)
	}
	n, err := f.w.Write(p)
	f.remaining -= int64(n)
	return n, err
}
