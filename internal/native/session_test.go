package native

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/enginetest"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/graph/gen"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// bitsEqual checks Float64bits equality — the native session promises
// bit-identical states to the reference recompute, not just tolerance
// agreement, because the monotonic fixpoint is unique and both sides run
// the same float operations.
func bitsEqual(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d states, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: vertex %d: got %v (%016x), want %v (%016x)",
				ctx, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func randomStream(rng *rand.Rand, n, maxID int) []graph.Update {
	batch := make([]graph.Update, n)
	for i := range batch {
		e := graph.Edge{Src: graph.VertexID(rng.Intn(maxID)), Dst: graph.VertexID(rng.Intn(maxID)), Weight: float32(1 + rng.Intn(16))}
		batch[i] = graph.Update{Edge: e, Delete: rng.Intn(3) == 0}
	}
	return batch
}

// TestSessionMatchesReference streams random batches through a stateful
// Session and checks after every batch that its states are bit-identical
// to the from-scratch oracle on the same graph, for every monotonic
// benchmark and several worker counts.
func TestSessionMatchesReference(t *testing.T) {
	for _, name := range []string{"sssp", "bfs", "sswp", "cc"} {
		for _, workers := range []int{1, 4} {
			rng := rand.New(rand.NewSource(int64(workers)*100 + int64(len(name))))
			const nv = 200
			a, err := enginetest.NewAlgorithm(name, nv, 1)
			if err != nil {
				t.Fatal(err)
			}
			mono := a.(algo.MonotonicAlgo)
			init := randomStream(rng, 600, nv)
			st := graph.NewStore(nv)
			ref := graph.NewStore(nv)
			for _, u := range init {
				if !u.Delete {
					st.AddEdge(u.Edge.Src, u.Edge.Dst, u.Edge.Weight)
					ref.AddEdge(u.Edge.Src, u.Edge.Dst, u.Edge.Weight)
				}
			}
			s := NewSession(mono, st, Config{Workers: workers})
			bitsEqual(t, name+"/bootstrap", s.StatesCopy(), algo.Reference(a, ref.Seal()))
			for batch := 0; batch < 25; batch++ {
				ups := randomStream(rng, 1+rng.Intn(40), nv)
				ref.Apply(ups)
				s.ApplyBatch(ups)
				want := algo.Reference(a, ref.Seal())
				bitsEqual(t, name, s.StatesCopy(), want)
			}
			s.Close()
		}
	}
}

// TestSessionFaultMutatedStream pushes batches through the fault
// injector's mutators (duplicates, self-loops, reordering, out-of-range
// IDs that grow the vertex set) and checks the session still agrees with
// a second store fed the same stream, on both the edge set and the
// from-scratch reference states.
func TestSessionFaultMutatedStream(t *testing.T) {
	for _, seed := range []int64{3, 17, 51} {
		inj := fault.New(seed)
		inj.Arm(fault.Duplicate, 0.2)
		inj.Arm(fault.SelfLoop, 0.1)
		inj.Arm(fault.Reorder, 1)
		inj.Arm(fault.OutOfRange, 0.05)
		rng := rand.New(rand.NewSource(seed))
		const nv = 120
		a := algo.NewSSSP(0)
		st := graph.NewStore(nv)
		ref := graph.NewStore(nv)
		s := NewSession(a, st, Config{Workers: 2})
		for batch := 0; batch < 20; batch++ {
			ups := inj.MutateBatch(randomStream(rng, 1+rng.Intn(30), nv), nv)
			ref.Apply(ups)
			s.ApplyBatch(ups)
			snap := ref.Seal()
			if !reflect.DeepEqual(st.EdgeList(), snap.EdgeList()) {
				t.Fatalf("seed %d batch %d: edge sets diverge", seed, batch)
			}
			bitsEqual(t, "fault-stream", s.StatesCopy(), algo.Reference(a, snap))
		}
		s.Close()
	}
}

// TestSessionDeleteHeavy stresses the tag/reset/re-gather repair: long
// chains built then torn down, including deleting the root's out-edges.
func TestSessionDeleteHeavy(t *testing.T) {
	const nv = 64
	a := algo.NewSSSP(0)
	st := graph.NewStore(nv)
	ref := graph.NewStore(nv)
	s := NewSession(a, st, Config{Workers: 2})
	defer s.Close()
	// Chain 0→1→…→63 plus shortcuts.
	var ups []graph.Update
	for i := 0; i < nv-1; i++ {
		ups = append(ups, graph.Update{Edge: graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), Weight: 1}})
	}
	for i := 0; i < nv; i += 7 {
		ups = append(ups, graph.Update{Edge: graph.Edge{Src: 0, Dst: graph.VertexID(i), Weight: 20}})
	}
	ref.Apply(ups)
	s.ApplyBatch(ups)
	bitsEqual(t, "chain", s.StatesCopy(), algo.Reference(a, ref.Seal()))
	// Tear the chain apart one link at a time.
	for i := 0; i < nv-1; i += 2 {
		del := []graph.Update{{Edge: graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}, Delete: true}}
		ref.Apply(del)
		s.ApplyBatch(del)
		bitsEqual(t, "teardown", s.StatesCopy(), algo.Reference(a, ref.Seal()))
	}
	if m := s.Metrics(); m.Get(stats.CtrResets) == 0 {
		t.Fatal("delete-heavy stream never exercised the reset path")
	}
}

// TestSessionFromStateRestore round-trips through the checkpoint shape:
// converged states restored verbatim into a fresh session over the same
// graph must survive further batches bit-identically.
func TestSessionFromStateRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const nv = 150
	a := algo.NewSSWP(0)
	st := graph.NewStore(nv)
	ref := graph.NewStore(nv)
	s := NewSession(a, st, Config{Workers: 2})
	for batch := 0; batch < 10; batch++ {
		ups := randomStream(rng, 30, nv)
		ref.Apply(ups)
		s.ApplyBatch(ups)
	}
	saved := s.StatesCopy()
	s.Close()

	st2 := graph.NewStoreFromEdges(st.NumVertices(), ref.Seal().EdgeList())
	s2, err := NewSessionFromRows(a, st2, st2.Rows(), saved, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	bitsEqual(t, "restored", s2.StatesCopy(), saved)
	for batch := 0; batch < 10; batch++ {
		ups := randomStream(rng, 30, nv)
		ref.Apply(ups)
		s2.ApplyBatch(ups)
		bitsEqual(t, "post-restore", s2.StatesCopy(), algo.Reference(a, ref.Seal()))
	}

	if _, err := NewSessionFromRows(a, st2, st2.Rows(), saved[:3], Config{}); err == nil {
		t.Fatal("expected error for mismatched state length")
	}
}

// TestSessionGrowth checks updates referencing vertices beyond the
// current set grow every per-vertex array coherently.
func TestSessionGrowth(t *testing.T) {
	a := algo.NewCC()
	st := graph.NewStore(2)
	ref := graph.NewStore(2)
	s := NewSession(a, st, Config{Workers: 1})
	defer s.Close()
	ups := []graph.Update{
		{Edge: graph.Edge{Src: 0, Dst: 9, Weight: 1}},
		{Edge: graph.Edge{Src: 9, Dst: 5, Weight: 1}},
	}
	ref.Apply(ups)
	s.ApplyBatch(ups)
	if s.NumVertices() != 10 {
		t.Fatalf("session has %d vertices, want 10", s.NumVertices())
	}
	bitsEqual(t, "growth", s.StatesCopy(), algo.Reference(a, ref.Seal()))
}

// TestSessionTagsVictimOnce: one batch deletes 1's parent edge 0→1 and
// re-weights, deletes and re-adds 3's parent edge 2→3 while 3's ancestors
// 1 and 2 are victims too. 3 is a direct victim twice over and a
// descendant of one; it must be tagged and reset once.
func TestSessionTagsVictimOnce(t *testing.T) {
	a := algo.NewSSSP(0)
	base := []graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 3, Weight: 1}, {Src: 0, Dst: 2, Weight: 5}}
	st, ref := graph.NewStoreFromEdges(4, base), graph.NewStoreFromEdges(4, base)
	s := NewSession(a, st, Config{Workers: 2})
	defer s.Close()
	ups := []graph.Update{
		{Edge: graph.Edge{Src: 0, Dst: 1}, Delete: true},
		{Edge: graph.Edge{Src: 2, Dst: 3, Weight: 2}},
		{Edge: graph.Edge{Src: 2, Dst: 3}, Delete: true},
		{Edge: graph.Edge{Src: 2, Dst: 3, Weight: 1}},
	}
	ref.Apply(ups)
	if res := s.ApplyBatch(ups); len(res.DeletedEdges) != 3 {
		t.Fatalf("batch deleted %v; want 0→1 and 2→3 twice", res.DeletedEdges)
	}
	bitsEqual(t, "tag once", s.StatesCopy(), algo.Reference(a, ref.Seal()))
	if m := s.Metrics(); m.Get(stats.CtrTagPropagations) != 3 || m.Get(stats.CtrResets) != 3 {
		t.Fatalf("%d tags and %d resets; want 3 each, one per distinct victim",
			m.Get(stats.CtrTagPropagations), m.Get(stats.CtrResets))
	}
}

// Footprint budget of an edgeless session vertex: its state (8 B) and
// its parent, spinlock and queued flag (4 B each). Two 4-byte
// propagation counters, a skip that never fired, made it 28 B, and a
// 4-byte tag epoch 32 B before tagging cut the parent link instead.
// sessionFixedBytes covers the Session's own fields and
// whatever the runtime allocates around the measurement.
const (
	sessionBytesPerEmptyVertex = 8 + 3*4
	sessionFixedBytes          = 64 << 10
)

// TestSessionFootprintBudget holds a session over a million edgeless
// vertices to sessionBytesPerEmptyVertex each, store excluded.
func TestSessionFootprintBudget(t *testing.T) {
	const n = 1 << 20
	st := graph.NewStore(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewSession(algo.NewSSSP(0), st, Config{Workers: 1})
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer s.Close()
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc) - sessionFixedBytes) / n
	t.Logf("NewSession over %d edgeless vertices: %.2f B per vertex (budget %d)", n, per, sessionBytesPerEmptyVertex)
	if per > sessionBytesPerEmptyVertex {
		t.Errorf("NewSession over %d edgeless vertices holds %.2f B per vertex, budget %d", n, per, sessionBytesPerEmptyVertex)
	}
}

// TestBootstrapRowsMatchStore holds the cold start's bootstrap, which
// runs over the bulk loader's rows while the store is still being
// placed, to one over the loaded store's own rows: equal rows, then
// bit-identical states and identical parent forests, cold and in the
// restore form, for every monotonic algorithm. The R-MAT warm-up
// repeats edges with new weights and has hubs past the linear tier, so
// the loader folds repeats and rows span chunks. Under -race it is also
// the check that the bootstrap reads no store before the load's wait.
func TestBootstrapRowsMatchStore(t *testing.T) {
	const nv = 4096
	edges := gen.RMAT(gen.RMATConfig{NumVertices: nv, NumEdges: 32_768, A: 0.57, B: 0.19, C: 0.19, Seed: 3, MaxWeight: 16})
	for i := 0; i < 32_768; i += 7 {
		e := edges[i]
		e.Weight = float32(1 + i%5)
		edges = append(edges, e)
	}
	want := graph.NewStoreFromEdges(nv, edges)
	d := 0
	for v := range graph.VertexID(nv) {
		d = max(d, want.OutDegree(v))
	}
	if d <= 2*64 || want.NumEdges() == len(edges) {
		t.Fatalf("max out-degree %d, %d of %d edges: no row spans two hub chunks, or no repeat folded", d, want.NumEdges(), len(edges))
	}
	var ckpt bytes.Buffer
	if err := want.WriteBinary(&ckpt); err != nil {
		t.Fatal(err)
	}
	sameRows := func(how string, got, want *graph.Rows) {
		t.Helper()
		if !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Neighbors, want.Neighbors) || !slices.Equal(got.Weights, want.Weights) {
			t.Fatalf("%s: the loader's rows differ from the store's", how)
		}
	}
	sameSession := func(how string, got, want *Session) {
		t.Helper()
		bitsEqual(t, how, got.StatesCopy(), want.StatesCopy())
		if !slices.Equal(got.parent, want.parent) {
			t.Fatalf("%s: parent forests differ", how)
		}
	}
	for _, name := range []string{"sssp", "cc", "bfs", "sswp"} {
		a, err := enginetest.NewAlgorithm(name, nv, 1)
		if err != nil {
			t.Fatal(err)
		}
		mono := a.(algo.MonotonicAlgo)
		t.Run(name, func(t *testing.T) {
			ref := NewSession(mono, want, Config{Workers: 1})
			defer ref.Close()

			st, rows, wait := graph.StartStoreFromEdges(nv, edges)
			cold, err := NewSessionFromRows(mono, st, rows, nil, Config{Workers: 1})
			wait()
			if err != nil {
				t.Fatal(err)
			}
			defer cold.Close()
			sameRows("cold", rows, st.Rows())
			sameSession("cold", cold, ref)

			snap, err := graph.ReadBinaryCSR(ckpt.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			keep := ref.StatesCopy()
			st, rows, wait = graph.StartStoreFromSnapshot(snap)
			restored, err := NewSessionFromRows(mono, st, rows, keep, Config{Workers: 1})
			wait()
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			sameRows("restore", rows, st.Rows())
			overStore, err := NewSessionFromRows(mono, st, st.Rows(), keep, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer overStore.Close()
			sameSession("restore", restored, overStore)
		})
	}
}
