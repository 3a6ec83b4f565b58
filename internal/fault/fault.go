// Package fault is a deterministic, seeded fault injector for the
// robustness test harness: it produces the hostile inputs a long-lived
// streaming deployment eventually sees — malformed updates, torn or
// bit-flipped checkpoints, failing I/O paths, silently corrupted
// states — as reproducible functions of a seed, so every
// injection run (and every regression it uncovers) can be replayed
// exactly. The injector never decides how the pipeline reacts; the
// hardened targets (internal/stream validation, the CRC-checked
// checkpoint format in session_io.go, the engine audit, the simulator
// watchdog) do, and the bench suite asserts each fault class ends in
// recovery or a typed error, never a panic or silent divergence.
package fault

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// Class identifies one injectable fault class.
type Class string

const (
	// Corrupt scrambles an update's endpoints and weight (param: per-update rate).
	Corrupt Class = "corrupt"
	// Duplicate re-appends updates verbatim (param: per-update rate).
	Duplicate Class = "dup"
	// Reorder shuffles the whole batch (param ignored; armed = on).
	Reorder Class = "reorder"
	// OutOfRange rewrites an endpoint to a vertex ID beyond the graph
	// (param: per-update rate). IDs land in [V, 2V+64] so an unvalidated
	// sink degrades gracefully instead of allocating unboundedly.
	OutOfRange Class = "oob"
	// BadWeight replaces weights with NaN/±Inf (param: per-update rate).
	BadWeight Class = "badweight"
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
	// Diverge corrupts converged vertex states in place (param: count),
	// modelling silent state corruption the audit must catch.
	Diverge Class = "diverge"
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
	// NetDrop silently drops written frames (param: per-frame rate).
	// Armed through Injector.Conn.
	NetDrop Class = "net-drop"
	// NetDelay sleeps before each written frame (param: milliseconds).
	// Armed through Injector.Conn.
	NetDelay Class = "net-delay"
	// NetDup sends written frames twice (param: per-frame rate). Armed
	// through Injector.Conn.
	NetDup Class = "net-dup"
	// NetReorder swaps a written frame with its successor (param:
	// per-frame rate). Armed through Injector.Conn.
	NetReorder Class = "net-reorder"
	// NetPartition fails all I/O on the connection after a number of
	// written frames (param: frames before the partition). Armed through
	// Injector.Conn.
	NetPartition Class = "net-partition"
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
	// NetHeal heals a tripped partition (NetPartition or
	// NetPartitionRecv) after a number of failed I/O calls (param:
	// blocked operations before the heal), modelling a transient split
	// that recovers — the election chaos suite's partition-heal case.
	// A NetTrunc death is permanent and never heals. Armed through
	// Injector.Conn.
	NetHeal Class = "net-heal"
)

// Classes lists every recognised fault class.
var Classes = []Class{
	Corrupt, Duplicate, Reorder, OutOfRange, BadWeight, SelfLoop,
	CkptFlip, CkptTruncate, ReadErr, WriteErr, Diverge,
	WALTorn, FsyncErr, DiskFull, NoSpace, LowSpace, PartialSeg,
	NetDrop, NetDelay, NetDup, NetReorder, NetPartition, NetTrunc,
	NetPartitionRecv, NetHeal,
}

// BatchClasses are the classes MutateBatch acts on: the set a -faults
// flag over a batch stream arms.
var BatchClasses = []Class{Corrupt, Duplicate, Reorder, OutOfRange, BadWeight, SelfLoop}

// DiskClasses are the classes Injector.FS acts on.
var DiskClasses = []Class{WALTorn, FsyncErr, DiskFull, NoSpace, LowSpace}

// defaultParam is the per-class parameter used when a spec arms a class
// without an explicit value.
var defaultParam = map[Class]float64{
	Corrupt:          0.02,
	Duplicate:        0.02,
	Reorder:          1,
	OutOfRange:       0.02,
	BadWeight:        0.02,
	SelfLoop:         0.02,
	CkptFlip:         8,
	CkptTruncate:     0.25,
	ReadErr:          256,
	WriteErr:         256,
	Diverge:          4,
	WALTorn:          256,
	FsyncErr:         2,
	DiskFull:         1024,
	NoSpace:          4096,
	LowSpace:         4096,
	PartialSeg:       0.25,
	NetDrop:          0.05,
	NetDelay:         1,
	NetDup:           0.05,
	NetReorder:       0.05,
	NetPartition:     32,
	NetTrunc:         4096,
	NetPartitionRecv: 32,
	NetHeal:          8,
}

// ErrInjected is the sentinel every scheduled I/O failure wraps, so
// recovery paths can distinguish injected faults from real ones.
var ErrInjected = errors.New("fault: injected I/O error")

// Injector deterministically injects the armed fault classes. All
// randomness flows from the construction seed, so two injectors with the
// same seed and spec mutate identical inputs identically, in call order.
// The rng and batch/checkpoint mutators are single-goroutine like the
// pipeline that drives them; only the counts (and the net.Conn wrappers,
// which carry their own derived rngs) are safe to touch concurrently.
type Injector struct {
	seed  int64
	rng   *rand.Rand
	armed map[Class]float64

	mu     sync.Mutex
	counts map[Class]int
	conns  int
}

// New returns an injector with no classes armed.
func New(seed int64) *Injector {
	return &Injector{
		seed:   seed,
		rng:    rand.New(rand.NewSource(seed)),
		armed:  make(map[Class]float64),
		counts: make(map[Class]int),
	}
}

// Parse builds an injector from a -faults spec: a comma-separated list of
// class[:param] items, e.g. "corrupt:0.05,oob,ckpt-flip:4". An empty spec
// returns an injector with nothing armed. When accepted is given, a class
// outside it is an error: a command names the classes it wires, so a
// spec it would silently ignore is refused.
func Parse(spec string, seed int64, accepted ...Class) (*Injector, error) {
	if len(accepted) == 0 {
		accepted = Classes
	}
	in := New(seed)
	if strings.TrimSpace(spec) == "" {
		return in, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, paramStr, hasParam := strings.Cut(item, ":")
		c := Class(name)
		if !slices.Contains(accepted, c) {
			return nil, fmt.Errorf("fault: class %q not accepted here (accepted: %s)", name, joinClasses(accepted))
		}
		param := defaultParam[c]
		if hasParam {
			p, err := strconv.ParseFloat(paramStr, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad parameter %q for class %s: %w", paramStr, name, err)
			}
			param = p
		}
		in.Arm(c, param)
	}
	return in, nil
}

func joinClasses(cs []Class) string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = string(c)
	}
	return strings.Join(names, " ")
}

// Arm enables a class with the given parameter.
func (in *Injector) Arm(c Class, param float64) { in.armed[c] = param }

// Enabled reports whether the class is armed.
func (in *Injector) Enabled(c Class) bool { _, ok := in.armed[c]; return ok }

// Param returns the armed parameter of c (zero when disarmed).
func (in *Injector) Param(c Class) float64 { return in.armed[c] }

func (in *Injector) hit(c Class) bool {
	p, ok := in.armed[c]
	return ok && in.rng.Float64() < p
}

func (in *Injector) count(c Class) {
	in.mu.Lock()
	in.counts[c]++
	in.mu.Unlock()
}

// Injected returns how many faults of each class have been injected so
// far, in deterministic class order.
func (in *Injector) Injected() []ClassCount {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]ClassCount, 0, len(in.counts))
	for c, n := range in.counts {
		out = append(out, ClassCount{Class: c, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// ClassCount is one entry of Injected.
type ClassCount struct {
	Class Class
	Count int
}

// Total returns the total number of injected faults.
func (in *Injector) Total() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, c := range in.counts {
		n += c
	}
	return n
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
		if in.hit(Corrupt) {
			in.count(Corrupt)
			// Scramble all three fields: a garbage frame off the wire.
			u.Edge.Src = graph.VertexID(in.rng.Intn(numVertices + 64))
			u.Edge.Dst = graph.VertexID(in.rng.Intn(numVertices + 64))
			u.Edge.Weight = float32(in.rng.NormFloat64() * 1e6)
		}
		if in.hit(OutOfRange) {
			in.count(OutOfRange)
			bad := graph.VertexID(numVertices + in.rng.Intn(numVertices+64))
			if in.rng.Intn(2) == 0 {
				u.Edge.Src = bad
			} else {
				u.Edge.Dst = bad
			}
		}
		if in.hit(BadWeight) {
			in.count(BadWeight)
			switch in.rng.Intn(3) {
			case 0:
				u.Edge.Weight = float32(math.NaN())
			case 1:
				u.Edge.Weight = float32(math.Inf(1))
			default:
				u.Edge.Weight = float32(math.Inf(-1))
			}
		}
		if in.hit(SelfLoop) {
			in.count(SelfLoop)
			u.Edge.Dst = u.Edge.Src
		}
		if in.hit(Duplicate) {
			in.count(Duplicate)
			dups = append(dups, *u)
		}
	}
	out = append(out, dups...)
	if in.Enabled(Reorder) {
		in.count(Reorder)
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
		in.count(CkptTruncate)
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
			in.count(CkptFlip)
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
	in.count(PartialSeg)
	keep := len(out) - int(float64(len(out))*frac)
	if keep < 0 {
		keep = 0
	}
	if keep >= len(out) {
		keep = len(out) - 1
	}
	return out[:keep]
}

// CorruptStates silently corrupts Param(Diverge) vertex states in place
// and returns the corrupted indices — the fault the engine audit must
// detect. A no-op (returning nil) when Diverge is disarmed or the vector
// is empty.
func (in *Injector) CorruptStates(states []float64) []int {
	n, ok := in.armed[Diverge]
	if !ok || len(states) == 0 {
		return nil
	}
	var idx []int
	for i := 0; i < int(n); i++ {
		in.count(Diverge)
		v := in.rng.Intn(len(states))
		states[v] = in.rng.NormFloat64()*1e9 - 1e9
		idx = append(idx, v)
	}
	return idx
}

// Reader wraps r with the armed ReadErr schedule: reads succeed for
// Param(ReadErr) bytes, then fail with an error wrapping ErrInjected.
// Disarmed, r is returned unchanged.
func (in *Injector) Reader(r io.Reader) io.Reader {
	limit, ok := in.armed[ReadErr]
	if !ok {
		return r
	}
	return &faultyReader{in: in, r: r, remaining: int64(limit)}
}

// Writer wraps w with the armed WriteErr schedule: writes succeed for
// Param(WriteErr) bytes, then fail with an error wrapping ErrInjected.
// Disarmed, w is returned unchanged.
func (in *Injector) Writer(w io.Writer) io.Writer {
	limit, ok := in.armed[WriteErr]
	if !ok {
		return w
	}
	return &faultyWriter{in: in, w: w, remaining: int64(limit)}
}

type faultyReader struct {
	in        *Injector
	r         io.Reader
	remaining int64
}

func (f *faultyReader) Read(p []byte) (int, error) {
	if f.remaining <= 0 {
		f.in.count(ReadErr)
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
	in        *Injector
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
		f.in.count(WriteErr)
		return n, fmt.Errorf("fault: scheduled write error: %w", ErrInjected)
	}
	n, err := f.w.Write(p)
	f.remaining -= int64(n)
	return n, err
}
