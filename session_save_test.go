package tdgraph_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// TestCheckpointBytesEngineIndependent: the Session streams the graph
// block straight from its mutable store, and the file must be the one
// the paper's functional engine would have written from its sealed
// snapshot — after every batch, the graph payload is byte-identical to
// the enginetest.Runner's Snapshot.WriteBinary and the state payload
// holds the Runner's states bit for bit. The Runner keeps its graph in a
// graph.Store too, so the graph check pins the session's streamed block
// against a second store's sealed one; TestStoreMatchesBuilder holds the
// store itself to an independent graph.
func TestCheckpointBytesEngineIndependent(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ref := enginetest.NewRunner(tdgraph.NewSSSP(0), edges, nv, enginetest.TopologyDriven)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i <= 6; i++ {
		if i > 0 {
			// The vertex range creeps past nv, so the set grows too.
			batch := randomBatch(rng, nv+20*i, 200)
			ref.Apply(batch)
			if _, err := s.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		file := savedWithMeta(t, s, fmt.Sprintf("seq-%d", i))
		_, g, st := ckptBlocks(t, file)
		var want bytes.Buffer
		if err := ref.G.WriteBinary(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file[g.Payload:g.CRC], want.Bytes()) {
			t.Fatalf("after %d batches the graph block (%d bytes) differs from the runner snapshot's (%d bytes)", i, g.CRC-g.Payload, want.Len())
		}
		states := make([]float64, (st.CRC-st.Payload-8)/8)
		for v := range states {
			states[v] = math.Float64frombits(binary.LittleEndian.Uint64(file[st.Payload+8+8*v:]))
		}
		if v := bitsIdentical(states, ref.S); v >= 0 {
			t.Fatalf("after %d batches the state block (%d states) differs from the functional engine's (%d) at vertex %d", i, len(states), len(ref.S), v)
		}
	}
}

// TestAccumulativeSaveLoadRoundTrip: PageRank and Adsorption sessions
// restored from a checkpoint keep their states through deletion
// batches, within tolerance of the oracle after every batch.
func TestAccumulativeSaveLoadRoundTrip(t *testing.T) {
	edges, nv := sessionEdges()
	// Eps 1e-9, as in TestColdStartMatchesReference; TestAccumulativeDefaultEpsilon holds 1e-7.
	for _, mk := range []func() tdgraph.Algorithm{
		func() tdgraph.Algorithm { return &algo.PageRank{Damp: 0.85, Eps: 1e-9} },
		func() tdgraph.Algorithm { a := tdgraph.NewAdsorption(nv, 3); a.Eps = 1e-9; return a },
	} {
		src, err := tdgraph.NewSession(mk(), edges, nv, tdgraph.SessionOptions{Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := src.Save(&buf); err != nil {
			t.Fatal(err)
		}
		src.Close()
		s, err := tdgraph.LoadSession(mk(), &buf, tdgraph.SessionOptions{Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		deleteWithinTolerance(t, s, mk(), edges)
	}
}

// TestAccumulativeDefaultEpsilon: at Epsilon 1e-7 a delta inside the band
// stays pending until later ones carry it out, so PageRank holds 1e-4.
// Dropping it when claimed drifts past that at vertex 0 by batch 7 (by
// batch 4 if, as the snapshot-pair engine did, any share queues).
func TestAccumulativeDefaultEpsilon(t *testing.T) {
	edges, nv := sessionEdges()
	s, err := tdgraph.NewSession(tdgraph.NewPageRank(), edges, nv, tdgraph.SessionOptions{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	deleteWithinTolerance(t, s, tdgraph.NewPageRank(), edges)
}

// deleteWithinTolerance deletes edges[:500] from s in ten batches and
// holds s within 1e-4 of the oracle after each.
func deleteWithinTolerance(t *testing.T, s *tdgraph.Session, a tdgraph.Algorithm, edges []tdgraph.Edge) {
	t.Helper()
	for i := 0; i < 10; i++ {
		del := make([]tdgraph.Update, 0, 50)
		for _, e := range edges[i*50 : (i+1)*50] {
			del = append(del, tdgraph.Update{Edge: e, Delete: true})
		}
		if _, err := s.ApplyBatch(del); err != nil {
			t.Fatal(err)
		}
		if v := algo.StatesEqual(s.States(), algo.Reference(a, s.Graph()), 1e-4); v >= 0 {
			t.Fatalf("%s, batch %d: vertex %d diverges from the oracle", a.Name(), i, v)
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

// TestSaveAllocBudget is the allocation guard on the streaming save: once
// the session's file buffer and the store's row scratch exist, one
// Checkpointer.SaveWithMeta of a native session allocates only the temp
// file's bookkeeping — under 16 KB — and no more objects when the graph
// is four times larger at the same max degree. A save that seals,
// buffers a payload, copies the states or takes a fresh chunk fails the
// budget; an encoder that outgrows the buffer it was lent, once per
// buffer-full, fails the count.
func TestSaveAllocBudget(t *testing.T) {
	perSave := func(n int) (bytes, objects float64) {
		s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), fanGraph(n), n, tdgraph.SessionOptions{Cores: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		ck := tdgraph.NewCheckpointer(filepath.Join(t.TempDir(), "ckpt.tds"))
		// MemStats count the whole process. A GC cycle that starts inside
		// the window empties the sync.Pools, wakes the unique-map cleanup
		// and may start a thread: objects no save asked for. So collect
		// before the warm-up save and keep the collector off until the
		// count is taken.
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
		return float64(after.TotalAlloc-before.TotalAlloc) / timed, float64(after.Mallocs-before.Mallocs) / timed
	}
	small, smallObjs := perSave(20_000)
	big, bigObjs := perSave(80_000)
	t.Logf("allocated per save: %.0f B in %.0f objects at 83K edges, %.0f B in %.0f at 323K edges", small, smallObjs, big, bigObjs)
	if small > 16<<10 || big > 16<<10 {
		t.Errorf("a save allocates %.0f / %.0f bytes, budget %d: something on the path materialises", small, big, 16<<10)
	}
	if bigObjs > smallObjs+1 { // one object of slack for the runtime's own
		t.Errorf("a save of 4x the edges allocates %.0f objects against %.0f: allocation grows with the graph", bigObjs, smallObjs)
	}
}

// TestSaveReusesBuffers: a session keeps its checkpoint file buffer and
// the store its row-sort scratch, and the graph and state payloads are
// encoded straight into that buffer, so a second Save of the same
// session into a reused writer allocates at most 4 KB — where each save
// used to allocate three 64 KiB chunks and a max-degree scratch — and
// writes the same bytes.
func TestSaveReusesBuffers(t *testing.T) {
	const n = 4000
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), fanGraph(n), n, tdgraph.SessionOptions{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out bytes.Buffer
	if err := s.Save(&out); err != nil {
		t.Fatal(err)
	}
	first := bytes.Clone(out.Bytes())
	out.Reset()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.Save(&out)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), first) {
		t.Fatal("the second save wrote different bytes")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<10 {
		t.Fatalf("second save of a %d-byte checkpoint allocated %d bytes, budget %d", len(first), alloc, 4<<10)
	} else {
		t.Logf("second save of a %d-byte checkpoint allocated %d bytes", len(first), alloc)
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
	s, err := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, nv, tdgraph.SessionOptions{Cores: 2})
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
		var got bytes.Buffer
		if err := s.Save(fault.Writer(&got, int64(cut))); !errors.Is(err, fault.ErrInjected) {
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
	var got bytes.Buffer
	if err := s.Save(fault.Writer(&got, int64(clean.Len()))); err != nil || !bytes.Equal(got.Bytes(), clean.Bytes()) {
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
