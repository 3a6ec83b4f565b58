package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomUpdates produces a batch mixing inserts, deletes, reweights,
// duplicates, and self-loops over a small ID space so collisions are
// frequent.
func randomUpdates(rng *rand.Rand, n, maxID int) []Update {
	batch := make([]Update, n)
	for i := range batch {
		src := VertexID(rng.Intn(maxID))
		dst := VertexID(rng.Intn(maxID))
		if rng.Intn(20) == 0 {
			dst = src // self-loop
		}
		w := float32(rng.Intn(8)) // small weight range → frequent dup weights
		batch[i] = Update{
			Edge:   Edge{Src: src, Dst: dst, Weight: w},
			Delete: rng.Intn(3) == 0,
		}
	}
	return batch
}

// sameSlice is DeepEqual that treats nil and empty as equal — the Builder
// leaves untouched slices nil while the Store reuses zero-length buffers.
func sameSlice(a, b any) bool {
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	if av.Len() == 0 && bv.Len() == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

func sameApplyResult(t *testing.T, label string, want, got ApplyResult) {
	t.Helper()
	if want.Added != got.Added || want.Deleted != got.Deleted ||
		want.WeightChanged != got.WeightChanged || want.Skipped != got.Skipped {
		t.Fatalf("%s: counts diverge: builder {add %d del %d chg %d skip %d}, store {add %d del %d chg %d skip %d}",
			label, want.Added, want.Deleted, want.WeightChanged, want.Skipped,
			got.Added, got.Deleted, got.WeightChanged, got.Skipped)
	}
	if !sameSlice(want.Affected, got.Affected) {
		t.Fatalf("%s: Affected diverges (order matters):\nbuilder %v\nstore   %v", label, want.Affected, got.Affected)
	}
	if !sameSlice(want.AddedEdges, got.AddedEdges) {
		t.Fatalf("%s: AddedEdges diverge:\nbuilder %v\nstore   %v", label, want.AddedEdges, got.AddedEdges)
	}
	if !sameSlice(want.DeletedEdges, got.DeletedEdges) {
		t.Fatalf("%s: DeletedEdges diverge:\nbuilder %v\nstore   %v", label, want.DeletedEdges, got.DeletedEdges)
	}
}

// sameEdgeTwice are the batches over {0→1 w12, 1→2 w1} that touch one
// edge twice so that an earlier add is no longer true at the end:
// re-weighted then deleted, added then deleted, re-weighted down then up.
var sameEdgeTwice = [][]Update{
	{{Edge: Edge{Src: 1, Dst: 2, Weight: 7}}, {Edge: Edge{Src: 1, Dst: 2}, Delete: true}},
	{{Edge: Edge{Src: 1, Dst: 3, Weight: 2}}, {Edge: Edge{Src: 1, Dst: 3}, Delete: true}},
	{{Edge: Edge{Src: 1, Dst: 2, Weight: 0.5}}, {Edge: Edge{Src: 1, Dst: 2, Weight: 7}}},
}

// TestStoreMatchesBuilder drives a Store and a Builder with identical
// update streams — the same-edge-twice shapes, then random ones — and
// checks every observable agrees after every batch: ApplyResult
// (including Affected first-touch order), edge set, degrees, and the
// sealed snapshot against the builder's; and that every AddedEdges
// entry is an edge of the post-batch graph at the listed weight.
func TestStoreMatchesBuilder(t *testing.T) {
	check := func(label string, b *Builder, st *Store, ups []Update) {
		t.Helper()
		want := b.Apply(ups)
		got := st.Apply(ups)
		sameApplyResult(t, label, want, got)
		for _, e := range got.AddedEdges {
			if w, ok := st.EdgeWeight(e.Src, e.Dst); !ok || w != e.Weight {
				t.Fatalf("%s: AddedEdges lists %v but the graph holds (%v, %v)", label, e, w, ok)
			}
		}
		if b.NumVertices() != st.NumVertices() {
			t.Fatalf("%s: vertex counts %d vs %d", label, b.NumVertices(), st.NumVertices())
		}
		if b.NumEdges() != st.NumEdges() {
			t.Fatalf("%s: edge counts %d vs %d", label, b.NumEdges(), st.NumEdges())
		}
		bs := b.Snapshot()
		ss := st.Seal()
		if err := ss.Validate(); err != nil {
			t.Fatalf("%s: sealed snapshot invalid: %v", label, err)
		}
		if !reflect.DeepEqual(bs.EdgeList(), ss.EdgeList()) {
			t.Fatalf("%s: edge lists diverge", label)
		}
		if !reflect.DeepEqual(bs.EdgeList(), st.EdgeList()) {
			t.Fatalf("%s: Store.EdgeList diverges from snapshot", label)
		}
		if !reflect.DeepEqual(bs.InOffsets, ss.InOffsets) ||
			!reflect.DeepEqual(bs.InNeighbors, ss.InNeighbors) ||
			!reflect.DeepEqual(bs.InWeights, ss.InWeights) {
			t.Fatalf("%s: CSC mirrors diverge", label)
		}
	}
	for i, ups := range sameEdgeTwice {
		base := []Edge{{Src: 0, Dst: 1, Weight: 12}, {Src: 1, Dst: 2, Weight: 1}}
		check(fmt.Sprintf("same-edge-twice %d", i), NewBuilderFromEdges(4, base), NewStoreFromEdges(4, base), ups)
	}
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		nv := 4 + rng.Intn(40)
		st := NewStore(nv)
		b := NewBuilder(nv)
		for batch := 0; batch < 30; batch++ {
			ups := randomUpdates(rng, 1+rng.Intn(60), nv+4) // +4 forces growth
			check(fmt.Sprintf("seed %d batch %d", seed, batch), b, st, ups)
		}
	}
}

// TestStoreHighDegreeSpill forces a vertex far past the inline slab so the
// open-addressing path (insert, reweight, delete with swap-remove and
// tombstones, rehash) is exercised, then checks against the Builder.
func TestStoreHighDegreeSpill(t *testing.T) {
	const n = 512
	st := NewStore(n)
	b := NewBuilder(n)
	hub := VertexID(0)
	for i := 1; i < n; i++ {
		st.AddEdge(hub, VertexID(i), float32(i))
		b.AddEdge(hub, VertexID(i), float32(i))
	}
	if st.OutDegree(hub) != n-1 || st.OutDegree(hub) != b.OutDegree(hub) {
		t.Fatalf("hub degree %d, want %d", st.OutDegree(hub), n-1)
	}
	// Reweight every other edge, delete every third.
	for i := 1; i < n; i++ {
		if i%2 == 0 {
			st.AddEdge(hub, VertexID(i), float32(-i))
			b.AddEdge(hub, VertexID(i), float32(-i))
		}
		if i%3 == 0 {
			st.DeleteEdge(hub, VertexID(i))
			b.DeleteEdge(hub, VertexID(i))
		}
	}
	for i := 1; i < n; i++ {
		sw, sok := st.EdgeWeight(hub, VertexID(i))
		var bw float32
		var bok bool
		if bok = b.HasEdge(hub, VertexID(i)); bok {
			bw, _ = b.Snapshot().EdgeWeight(hub, VertexID(i))
		}
		if sok != bok || (sok && sw != bw) {
			t.Fatalf("edge 0→%d: store (%v,%v) builder (%v,%v)", i, sw, sok, bw, bok)
		}
	}
	if !reflect.DeepEqual(st.Seal().EdgeList(), b.Snapshot().EdgeList()) {
		t.Fatal("sealed edge list diverges after churn")
	}
	// Churn the same key range repeatedly: tombstone reuse must not grow
	// the table without bound or corrupt lookups.
	for round := 0; round < 50; round++ {
		for i := 1; i < 64; i++ {
			st.DeleteEdge(hub, VertexID(i))
			st.AddEdge(hub, VertexID(i), float32(round))
		}
	}
	for i := 1; i < 64; i++ {
		if w, ok := st.EdgeWeight(hub, VertexID(i)); !ok || w != 49 {
			t.Fatalf("after churn, edge 0→%d = (%v,%v), want (49,true)", i, w, ok)
		}
	}
}

// TestStoreFromSnapshotRoundTrip checks Snapshot → Store → Seal is the
// identity on the canonical edge list.
func TestStoreFromSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	b := NewBuilder(64)
	for i := 0; i < 500; i++ {
		b.AddEdge(VertexID(rng.Intn(64)), VertexID(rng.Intn(64)), float32(rng.Intn(100)))
	}
	snap := b.Snapshot()
	st := NewStoreFromSnapshot(snap)
	if st.NumEdges() != snap.NumEdges() {
		t.Fatalf("edge count %d, want %d", st.NumEdges(), snap.NumEdges())
	}
	if !reflect.DeepEqual(st.Seal().EdgeList(), snap.EdgeList()) {
		t.Fatal("round-trip edge list diverges")
	}
}

// TestStoreWriteBinaryMatchesSeal pins the contract the streaming
// checkpoint rests on: Store.WriteBinary emits, without sealing, exactly
// the bytes Seal().WriteBinary does, and exactly BinarySize of them —
// on the empty graph, on isolated vertices, and after every batch of a
// random churn that grows the vertex set, spills rows past the inline
// slab and swap-removes from both representations. The row shapes the
// writer branches on must all have occurred, so the test cannot quietly
// stop covering one.
func TestStoreWriteBinaryMatchesSeal(t *testing.T) {
	var sortedRow, unsortedInline, unsortedSpilled, isolated bool
	check := func(label string, st *Store) {
		t.Helper()
		var want, got bytes.Buffer
		if err := st.Seal().WriteBinary(&want); err != nil {
			t.Fatal(err)
		}
		if err := st.WriteBinary(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: Store.WriteBinary differs from Seal().WriteBinary (%d vs %d bytes)", label, got.Len(), want.Len())
		}
		if size := BinarySize(st.NumVertices(), st.NumEdges()); uint64(got.Len()) != size {
			t.Fatalf("%s: wrote %d bytes, BinarySize says %d", label, got.Len(), size)
		}
		for v := 0; v < st.NumVertices(); v++ {
			ns, _ := st.OutEdges(VertexID(v))
			spilled := st.out.spill[v] != nil
			switch {
			case len(ns) == 0:
				isolated = true
			case len(ns) > 1 && slices.IsSorted(ns):
				sortedRow = true
			case len(ns) > 1 && spilled:
				unsortedSpilled = true
			case len(ns) > 1:
				unsortedInline = true
			}
		}
	}
	check("no vertices", NewStore(0))
	check("isolated vertices", NewStore(5))
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewStore(4)
		for batch, maxID := 0, 6; batch < 12; batch, maxID = batch+1, maxID+5 {
			st.Apply(randomUpdates(rng, 150, maxID))
			check(fmt.Sprintf("seed %d batch %d", seed, batch), st)
		}
	}
	if !sortedRow || !unsortedInline || !unsortedSpilled || !isolated {
		t.Fatalf("row shapes covered: sorted %v, unsorted inline %v, unsorted spilled %v, isolated %v; want all",
			sortedRow, unsortedInline, unsortedSpilled, isolated)
	}
}

// TestStoreWriteBinaryWriteError: the first failed chunk write is what
// WriteBinary returns, wherever in the stream it lands.
func TestStoreWriteBinaryWriteError(t *testing.T) {
	st := NewStore(4)
	st.Apply(randomUpdates(rand.New(rand.NewSource(7)), 40_000, 300))
	boom := errors.New("disk gone")
	for _, after := range []int{0, 1, 2} { // chunks written before the failure
		w := &failAfter{left: after, err: boom}
		if err := st.WriteBinary(w); !errors.Is(err, boom) {
			t.Fatalf("failure after %d chunks: WriteBinary = %v, want the writer's error", after, err)
		}
		if w.left != -1 {
			t.Fatalf("failure after %d chunks: writer called again after failing", after)
		}
	}
}

// failAfter accepts left writes, fails the next with err, and counts
// any call after that as a further step below -1.
type failAfter struct {
	left int
	err  error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.left--; f.left < 0 {
		return 0, f.err
	}
	return len(p), nil
}

// TestStoreApplyReusesBuffers documents the aliasing contract: the result
// slices of one Apply are invalidated by the next.
func TestStoreApplyReusesBuffers(t *testing.T) {
	st := NewStore(4)
	r1 := st.Apply([]Update{{Edge: Edge{Src: 0, Dst: 1, Weight: 1}}})
	if len(r1.Affected) != 1 || r1.Affected[0] != 1 {
		t.Fatalf("first apply affected %v", r1.Affected)
	}
	r2 := st.Apply([]Update{{Edge: Edge{Src: 2, Dst: 3, Weight: 1}}})
	if len(r2.Affected) != 1 || r2.Affected[0] != 3 {
		t.Fatalf("second apply affected %v", r2.Affected)
	}
	// r1.Affected now aliases the reused buffer; both headers point at the
	// same backing array.
	if &r1.Affected[0] != &r2.Affected[0] {
		t.Fatal("expected Apply to reuse the affected buffer (zero-alloc contract)")
	}
}

func BenchmarkStoreApplySingleEdge(b *testing.B) {
	st := NewStore(1 << 12)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<14; i++ {
		st.AddEdge(VertexID(rng.Intn(1<<12)), VertexID(rng.Intn(1<<12)), 1)
	}
	batch := []Update{{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := VertexID(i) & (1<<12 - 1)
		dst := VertexID(i*7) & (1<<12 - 1)
		batch[0] = Update{Edge: Edge{Src: src, Dst: dst, Weight: float32(i&7) + 1}}
		st.Apply(batch)
	}
}
