package tdgraph_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// TestCheckpointBytesEngineIndependent: the native backend streams the
// graph block straight from its mutable store and the sim backend from
// a sealed snapshot, and the two must be the same file — a native and a
// sim session fed the same batches write byte-identical checkpoints
// after every batch.
func TestCheckpointBytesEngineIndependent(t *testing.T) {
	edges, nv := sessionEdges()
	native, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer native.Close()
	sim, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i <= 6; i++ {
		if i > 0 {
			// The vertex range creeps past nv, so the set grows too.
			batch := randomBatch(rng, nv+20*i, 200)
			for _, s := range []*tdgraph.Session{native, sim} {
				if _, err := s.ApplyBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		meta := fmt.Sprintf("seq-%d", i)
		if a, b := savedWithMeta(t, native, meta), savedWithMeta(t, sim, meta); !bytes.Equal(a, b) {
			t.Fatalf("after %d batches the native checkpoint (%d bytes) differs from the sim one (%d bytes)", i, len(a), len(b))
		}
	}
}

// fanGraph has n vertices of out-degree 4 plus one hub whose 3000
// out-edges arrive in descending order, so every shape of it has the
// same max degree (and the same largest unsorted row) whatever n is.
func fanGraph(n int) []tdgraph.Edge {
	edges := make([]tdgraph.Edge, 0, 4*n+3000)
	for v := 0; v < n; v++ {
		for k := 1; k <= 4; k++ {
			edges = append(edges, tdgraph.Edge{Src: tdgraph.VertexID(v), Dst: tdgraph.VertexID((v*7 + k*k*31) % n), Weight: float32(k)})
		}
	}
	for d := 3000; d > 0; d-- {
		edges = append(edges, tdgraph.Edge{Src: 0, Dst: tdgraph.VertexID(n - d), Weight: 9})
	}
	return edges
}

// TestSaveAllocBudget is the allocation guard on the streaming save: one
// Checkpointer.SaveWithMeta of a native session allocates a few fixed
// chunks plus a max-degree row scratch — under 512 KB — and not more when
// the graph is four times larger at the same max degree. A save that
// seals, buffers a payload or copies the states fails both halves.
func TestSaveAllocBudget(t *testing.T) {
	perSave := func(n int) float64 {
		s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), fanGraph(n), n, tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel, Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ck := tdgraph.NewCheckpointer(filepath.Join(t.TempDir(), "ckpt.tds"))
		const warm, timed = 1, 4
		var before, after runtime.MemStats
		for i := 0; i < warm+timed; i++ {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			if err := ck.SaveWithMeta(s, []byte("seq-0001")); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / timed
	}
	small, big := perSave(20_000), perSave(80_000)
	t.Logf("bytes allocated per save: %.0f at 83K edges, %.0f at 323K edges", small, big)
	if small > 512<<10 || big > 512<<10 {
		t.Errorf("a save allocates %.0f / %.0f bytes, budget %d: something on the path materialises", small, big, 512<<10)
	}
	if big > small+32<<10 {
		t.Errorf("a save of 4x the edges allocates %.0f bytes against %.0f: allocation grows with the graph", big, small)
	}
}

// TestSaveStreamFailureSweep fails the checkpoint stream at every block
// boundary (length field, payload, trailing CRC, end) one byte either
// side, and at three points inside the graph block: Save must surface
// the writer's own error every time — fault.ErrInjected from the
// injector, and an out-of-space errno still recognisable to
// wal.IsNoSpace, which is what lets Pipeline.Apply degrade on a full
// volume instead of poisoning the batch.
func TestSaveStreamFailureSweep(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{Engine: tdgraph.EngineNativeParallel, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var clean bytes.Buffer
	if err := s.Save(&clean); err != nil {
		t.Fatal(err)
	}
	meta, graph, state := ckptBlocks(t, clean.Bytes())
	glen := graph.CRC - graph.Payload
	cuts := []int{graph.Payload + glen/4, graph.Payload + glen/2, graph.Payload + 3*glen/4}
	for _, blk := range []blockSpan{meta, graph, state} {
		for _, edge := range []int{blk.Len, blk.Payload, blk.CRC, blk.End} {
			cuts = append(cuts, edge-1, edge, edge+1)
		}
	}
	for _, cut := range cuts {
		if cut >= clean.Len() { // the file's last byte and beyond: nothing left to fail
			continue
		}
		in, err := fault.Parse(fmt.Sprintf("write-err:%d", cut), 1)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := s.Save(in.Writer(&got)); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("write failing after %d bytes: Save = %v, want the injected error", cut, err)
		}
		if !bytes.Equal(got.Bytes(), clean.Bytes()[:cut]) {
			t.Fatalf("write failing after %d bytes: %d bytes reached the writer and they are not the file's prefix", cut, got.Len())
		}
		full := &fullAfter{w: io.Discard, left: cut}
		if err := s.Save(full); !wal.IsNoSpace(err) {
			t.Fatalf("volume full after %d bytes: Save = %v, which wal.IsNoSpace no longer recognises", cut, err)
		}
	}
	// The whole file fits: the same wrappers are transparent.
	in, _ := fault.Parse(fmt.Sprintf("write-err:%d", clean.Len()), 1)
	var got bytes.Buffer
	if err := s.Save(in.Writer(&got)); err != nil || !bytes.Equal(got.Bytes(), clean.Bytes()) {
		t.Fatalf("budget of exactly the file's length: Save = %v, %d of %d bytes", err, got.Len(), clean.Len())
	}
}

// fullAfter is a volume with room for left more bytes: the write that
// does not fit persists what does and fails the way the OS reports a
// full disk.
type fullAfter struct {
	w    io.Writer
	left int
}

func (f *fullAfter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n, _ := f.w.Write(p[:f.left])
		f.left = 0
		return n, &os.PathError{Op: "write", Path: "ckpt.tds.tmp", Err: syscall.ENOSPC}
	}
	f.left -= len(p)
	return f.w.Write(p)
}
