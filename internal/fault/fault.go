// Package fault is a deterministic, seeded fault injector for the
// robustness tests: it produces the hostile inputs a long-lived
// streaming deployment eventually sees — malformed updates, torn or
// bit-flipped checkpoints, failing I/O paths, disks and wires — as
// reproducible functions of a seed, so every injection run (and every
// regression it uncovers) can be replayed exactly. The injector never
// decides how the pipeline reacts; the hardened targets
// (internal/stream validation, the CRC-checked checkpoint format in
// session_io.go, the WAL's recovery) do, and each is tested where it
// lives. Only tests import this package. Each fault is one call that
// takes its parameter and, where it draws, its seed or rng; disks fail
// through FS, wires through Conn.
package fault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// ErrInjected is the sentinel every scheduled I/O failure wraps, so
// recovery paths can distinguish injected faults from real ones.
var ErrInjected = errors.New("fault: injected I/O error")

// Mutation is the mix of stream-update faults MutateBatch applies. The
// rates are per update; a zero rate leaves its fault off.
type Mutation struct {
	// OutOfRange rewrites an endpoint to a vertex ID beyond the graph.
	// IDs land in [V, 2V+64] so an unvalidated sink degrades gracefully
	// instead of allocating unboundedly.
	OutOfRange float64
	SelfLoop   float64 // rewrites the update into a self-edge
	Duplicate  float64 // re-appends the update verbatim
	Reorder    bool    // shuffles the whole batch
}

// MutateBatch applies m to a copy of batch (the input is never
// modified), drawing from rng in a fixed per-update order, so the same
// rng state mutates the same batch identically. numVertices bounds the
// graph the batch targets; out-of-range injections land just beyond it.
func MutateBatch(rng *rand.Rand, batch []graph.Update, numVertices int, m Mutation) []graph.Update {
	hit := func(rate float64) bool { return rate > 0 && rng.Float64() < rate }
	out := make([]graph.Update, len(batch), len(batch)+8)
	copy(out, batch)
	var dups []graph.Update
	for i := range out {
		u := &out[i]
		if hit(m.OutOfRange) {
			bad := graph.VertexID(numVertices + rng.Intn(numVertices+64))
			if rng.Intn(2) == 0 {
				u.Edge.Src = bad
			} else {
				u.Edge.Dst = bad
			}
		}
		if hit(m.SelfLoop) {
			u.Edge.Dst = u.Edge.Src
		}
		if hit(m.Duplicate) {
			dups = append(dups, *u)
		}
	}
	out = append(out, dups...)
	if m.Reorder {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// TruncateTail drops the tail fraction frac of data, and always at
// least one byte of a non-empty input: the on-disk shape of a torn
// checkpoint or a half-flushed WAL segment. The input is not modified.
func TruncateTail(data []byte, frac float64) []byte {
	keep := len(data) - int(float64(len(data))*frac)
	return data[:max(0, min(keep, len(data)-1))]
}

// FlipBits flips n seeded random bits in a copy of data.
func FlipBits(data []byte, n int, seed int64) []byte {
	out := append([]byte(nil), data...)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n && len(out) > 0; i++ {
		pos := rng.Intn(len(out))
		out[pos] ^= 1 << uint(rng.Intn(8))
	}
	return out
}

// Reader wraps r so reads succeed for n bytes, then fail with an error
// wrapping ErrInjected.
func Reader(r io.Reader, n int64) io.Reader { return &faultyReader{r: r, remaining: n} }

// Writer wraps w so writes succeed for n bytes, then fail with an error
// wrapping ErrInjected; the write crossing n delivers its prefix.
func Writer(w io.Writer, n int64) io.Writer { return &faultyWriter{w: w, remaining: n} }

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
