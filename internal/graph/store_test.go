package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
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

// hubUpdates is randomUpdates with one endpoint of three updates in four
// moved onto hub 0 or 1 and a deletion share of del, so over a few
// hundred IDs the hubs' out- and in-degrees climb through every tier
// while del is low and fall back through them once it is high.
func hubUpdates(rng *rand.Rand, n, maxID int, del float64) []Update {
	batch := randomUpdates(rng, n, maxID)
	for i := range batch {
		switch e := &batch[i].Edge; rng.Intn(4) {
		case 0, 1:
			e.Src = VertexID(rng.Intn(2))
		case 2:
			e.Dst = VertexID(rng.Intn(2))
		}
		batch[i].Delete = rng.Float64() < del
	}
	return batch
}

// outRow is v's out-neighbours, its runs concatenated.
func outRow(st *Store, v VertexID) []VertexID {
	var row []VertexID
	for r := 0; ; r++ {
		ns, _ := st.OutEdges(v, r)
		if len(ns) == 0 {
			return row
		}
		row = append(row, ns...)
	}
}

// tierOf names the representation holding v's adjacency in a.
func tierOf[W weight](a *adjacency[W], v VertexID) string {
	switch h := a.hdr[v]; {
	case h.loc == 0:
		return "empty"
	case h.loc&locSpilled == 0:
		return "inline"
	case a.logs.at(h.loc&^locSpilled).hub == nil:
		return "linear"
	}
	return "indexed"
}

// matchBuilder applies ups to a Builder and a Store and checks their
// ApplyResults agree (including Affected first-touch order), as do their
// counts, and that every AddedEdges entry is an edge of the post-batch
// graph at the listed weight.
func matchBuilder(t *testing.T, label string, b *Builder, st *Store, ups []Update) {
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
}

// sameGraph checks the Store holds the Builder's graph: edge lists, the
// sealed snapshot and its CSC mirror, the store's own in-edge mirror —
// each vertex's in-neighbours as a set, their weights through
// EdgeWeight — and the checkpoint bytes.
func sameGraph(t *testing.T, label string, b *Builder, st *Store) {
	t.Helper()
	bs := b.Snapshot()
	ss := st.Seal()
	if err := ss.Validate(); err != nil {
		t.Fatalf("%s: sealed snapshot invalid: %v", label, err)
	}
	if !slices.Equal(bs.EdgeList(), ss.EdgeList()) {
		t.Fatalf("%s: edge lists diverge", label)
	}
	if !slices.Equal(bs.EdgeList(), st.EdgeList()) {
		t.Fatalf("%s: Store.EdgeList diverges from snapshot", label)
	}
	if !slices.Equal(bs.InOffsets, ss.InOffsets) ||
		!slices.Equal(bs.InNeighbors, ss.InNeighbors) ||
		!slices.Equal(bs.InWeights, ss.InWeights) {
		t.Fatalf("%s: CSC mirrors diverge", label)
	}
	for v := range VertexID(st.NumVertices()) {
		var ins []VertexID
		for r := 0; ; r++ {
			ns := st.InEdges(v, r)
			if len(ns) == 0 {
				break
			}
			ins = append(ins, ns...)
		}
		slices.Sort(ins)
		if !slices.Equal(ins, bs.InNeighborsOf(v)) || len(ins) != st.InDegree(v) {
			t.Fatalf("%s: in-neighbours of %d are %v (in-degree %d), want %v", label, v, ins, st.InDegree(v), bs.InNeighborsOf(v))
		}
		for i, u := range ins {
			if w, ok := st.EdgeWeight(u, v); !ok || math.Float32bits(w) != math.Float32bits(bs.InWeightsOf(v)[i]) {
				t.Fatalf("%s: in-edge %d→%d weighs (%v, %v), want %v", label, u, v, w, ok, bs.InWeightsOf(v)[i])
			}
		}
	}
	var wantBin, gotBin bytes.Buffer
	if err := bs.WriteBinary(&wantBin); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteBinary(&gotBin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBin.Bytes(), gotBin.Bytes()) {
		t.Fatalf("%s: Store.WriteBinary differs from the builder snapshot's", label)
	}
}

// TestStoreMatchesBuilder drives a Store and a Builder with identical
// update streams — the same-edge-twice shapes, random ones, a hub-biased
// one, single updates that recycle inline blocks, and hub climbs that
// recycle chunks — through matchBuilder after every batch and sameGraph.
// The hub stream must carry a hub to linear, indexed and back to linear
// by deletes, and the single updates must take vertices empty → inline →
// empty and inline → linear, so no tier can drop out of the
// differential.
func TestStoreMatchesBuilder(t *testing.T) {
	for i, ups := range sameEdgeTwice {
		base := []Edge{{Src: 0, Dst: 1, Weight: 12}, {Src: 1, Dst: 2, Weight: 1}}
		label, b, st := fmt.Sprintf("same-edge-twice %d", i), NewBuilderFromEdges(4, base), NewStoreFromEdges(4, base)
		matchBuilder(t, label, b, st, ups)
		sameGraph(t, label, b, st)
	}
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		nv := 4 + rng.Intn(40)
		st := NewStore(nv)
		b := NewBuilder(nv)
		for batch := 0; batch < 30; batch++ {
			label := fmt.Sprintf("seed %d batch %d", seed, batch)
			matchBuilder(t, label, b, st, randomUpdates(rng, 1+rng.Intn(60), nv+4)) // +4 forces growth
			sameGraph(t, label, b, st)
		}
	}
	rng := rand.New(rand.NewSource(5))
	st, b := NewStore(2), NewBuilder(2)
	moves := map[string]bool{}
	prev := [2][2]string{{"empty", "empty"}, {"empty", "empty"}} // out, in
	for batch := 0; batch < 60; batch++ {
		del := 0.1
		if batch >= 25 {
			del = 0.95
		}
		label := fmt.Sprintf("hub batch %d", batch)
		matchBuilder(t, label, b, st, hubUpdates(rng, 60, 200, del))
		sameGraph(t, label, b, st)
		for d, now := range [2][2]string{{tierOf(&st.out, 0), tierOf(&st.out, 1)}, {tierOf(&st.in, 0), tierOf(&st.in, 1)}} {
			for h := range now {
				moves[prev[d][h]+" → "+now[h]] = true
			}
			prev[d] = now
		}
	}
	for _, m := range []string{"empty → linear", "linear → indexed", "indexed → linear"} {
		if !moves[m] {
			t.Errorf("hub stream never moved a hub %s (moves seen: %v)", m, moves)
		}
	}

	// One update at a time, so no tier change or peak goes unseen. Vertex
	// 0 empties its block and takes it back, stale slots and all; vertex
	// 5 spills and vertex 11 gets its block; then a delete-heavy stream
	// empties and refills vertices throughout. Since a released block is
	// reused before a fresh one is issued, a pool has issued exactly as
	// many blocks as were ever inline at once.
	const nv = 24
	st, b = NewStore(nv), NewBuilder(nv)
	moves = map[string]bool{}
	tiers := [2][]string{make([]string, nv), make([]string, nv)} // out, in
	for _, was := range tiers {
		for v := range was {
			was[v] = "empty"
		}
	}
	var peak [2]int
	steps := func(ups []Update) {
		t.Helper()
		for _, u := range ups {
			matchBuilder(t, fmt.Sprintf("single update %v", u), b, st, []Update{u})
			for d, c := range [2][2]int{
				{tierMoves(&st.out, tiers[0], moves), int(st.out.blocks.issued)},
				{tierMoves(&st.in, tiers[1], moves), int(st.in.blocks.issued)},
			} {
				if peak[d] = max(peak[d], c[0]); c[1] != peak[d] {
					t.Fatalf("after %v: %d blocks issued, at most %d inline at once", u, c[1], peak[d])
				}
			}
		}
	}
	add := func(s, d VertexID) Update { return Update{Edge: Edge{Src: s, Dst: d, Weight: float32(d)}} }
	del := func(s, d VertexID) Update { return Update{Edge: Edge{Src: s, Dst: d}, Delete: true} }
	steps([]Update{add(0, 1), add(0, 2), add(0, 3)})
	block0 := st.out.hdr[0].loc
	steps([]Update{del(0, 1), del(0, 3), del(0, 2), add(0, 4), add(5, 6), add(5, 7), add(5, 8), add(5, 9)})
	block5 := st.out.hdr[5].loc
	steps([]Update{add(5, 10), add(11, 12)})
	ns0, _ := st.OutEdges(0, 0)
	ns11, _ := st.OutEdges(11, 0)
	if st.out.hdr[0].loc != block0 || st.out.hdr[11].loc != block5 || !slices.Equal(ns0, []VertexID{4}) || !slices.Equal(ns11, []VertexID{12}) {
		t.Fatalf("recycled blocks: vertex 0 has %v in %d (released %d), vertex 11 has %v in %d (vertex 5 released %d)",
			ns0, st.out.hdr[0].loc, block0, ns11, st.out.hdr[11].loc, block5)
	}
	churn := randomUpdates(rng, 4000, nv)
	for i := range churn {
		churn[i].Delete = rng.Intn(8) != 0
	}
	steps(churn)
	sameGraph(t, "single updates", b, st)
	for _, m := range []string{"empty → inline", "inline → empty", "inline → linear"} {
		if !moves[m] {
			t.Errorf("single-update stream never moved a vertex %s (moves seen: %v)", m, moves)
		}
	}

	// Hub 0 climbs from 0 to 200 out-edges one update at a time, taking a
	// chunk every storeChunkCap edges past its head; falls to 20, linear
	// again with its chunks and hub record released; then hub 255 climbs
	// to 150 on those. Released chunks are reused before fresh ones are
	// issued, so a pool has issued exactly as many as were ever live at
	// once.
	const hv = 256
	st, b = NewStore(hv), NewBuilder(hv)
	peak = [2]int{}
	chunksAt := func(deg int) int { return (deg - storeLinearMax + storeChunkCap - 1) / storeChunkCap }
	chunkSteps := func(hub VertexID, from, to int) {
		t.Helper()
		for d := from; d != to; {
			u := add(hub, VertexID(1+d))
			if to < from {
				u = del(hub, VertexID(d))
				d--
			} else {
				d++
			}
			matchBuilder(t, fmt.Sprintf("hub update %v", u), b, st, []Update{u})
			for d, c := range [2][2]int{
				{liveChunks(&st.out), int(st.out.chunks.pool.issued)},
				{liveChunks(&st.in), int(st.in.chunks.pool.issued)},
			} {
				if peak[d] = max(peak[d], c[0]); c[1] != peak[d] {
					t.Fatalf("after %v: %d chunks issued, at most %d live at once", u, c[1], peak[d])
				}
			}
		}
	}
	chunkSteps(0, 0, 200)
	l0 := st.out.logs.at(st.out.hdr[0].loc &^ locSpilled)
	if tierOf(&st.out, 0) != "indexed" || len(l0.hub.chunks) != chunksAt(200) || cap(l0.nbr) != storeLinearMax {
		t.Fatalf("hub at degree 200: tier %s, %d chunks, head capacity %d; want indexed, %d, %d",
			tierOf(&st.out, 0), len(l0.hub.chunks), cap(l0.nbr), chunksAt(200), storeLinearMax)
	}
	chunkSteps(0, 200, 20)
	if tierOf(&st.out, 0) != "linear" || len(st.out.chunks.free) != chunksAt(200) || len(st.out.hubs.free) != 1 {
		t.Fatalf("hub back at degree 20: tier %s, %d chunks and %d hub records free; want linear, %d and 1",
			tierOf(&st.out, 0), len(st.out.chunks.free), len(st.out.hubs.free), chunksAt(200))
	}
	chunkSteps(hv-1, 0, 150)
	if int(st.out.chunks.pool.issued) != chunksAt(200) || len(st.out.chunks.free) != chunksAt(200)-chunksAt(150) ||
		st.out.hubs.pool.issued != 1 || len(st.out.hubs.free) != 0 {
		t.Fatalf("second hub at degree 150: %d chunks issued, %d free, %d hub records issued, %d free; want %d, %d, 1, 0",
			st.out.chunks.pool.issued, len(st.out.chunks.free), st.out.hubs.pool.issued, len(st.out.hubs.free),
			chunksAt(200), chunksAt(200)-chunksAt(150))
	}
	sameGraph(t, "hub chunks", b, st)
}

// tierMoves records in moves each vertex's move from its tier in was to
// its tier in a, updates was, and returns how many vertices are inline.
func tierMoves[W weight](a *adjacency[W], was []string, moves map[string]bool) (inline int) {
	for v := range was {
		now := tierOf(a, VertexID(v))
		moves[was[v]+" → "+now] = true
		was[v] = now
		if now == "inline" {
			inline++
		}
	}
	return inline
}

// liveChunks counts the chunks a's hub records hold.
func liveChunks[W weight](a *adjacency[W]) (live int) {
	for _, h := range a.hdr {
		if h.loc&locSpilled != 0 {
			if hr := a.logs.at(h.loc &^ locSpilled).hub; hr != nil {
				live += len(hr.chunks)
			}
		}
	}
	return live
}

// tableSlots is the slot count of spilled vertex v's table in a.
func tableSlots[W weight](a *adjacency[W], v VertexID) int {
	return a.logs.at(a.hdr[v].loc &^ locSpilled).slots()
}

// TestStoreMirrorHoldsNoWeights pins the slot sizes: the in-edge
// mirror's inline blocks and chunks hold IDs alone, half the out-edges'
// (a zero-size weight array placed last would be padded).
func TestStoreMirrorHoldsNoWeights(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"out inline block", unsafe.Sizeof(inlineBlock[float32]{}), 32},
		{"in inline block", unsafe.Sizeof(inlineBlock[struct{}]{}), 16},
		{"out chunk", unsafe.Sizeof(edgeChunk[float32]{}), 512},
		{"in chunk", unsafe.Sizeof(edgeChunk[struct{}]{}), 256},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, want %d", c.name, c.got, c.want)
		}
	}
}

// TestStoreApplyTouchMarks: Apply clears its first-touch marks from the
// last batch's Affected, so after every Apply exactly that batch's
// Affected carry one. A vertex a delete hit in one batch is first-touched
// again in the next, with its add there live; an add deleted and re-added
// inside one batch, and a re-weight then deleted, still match the
// Builder.
func TestStoreApplyTouchMarks(t *testing.T) {
	base := []Edge{{Src: 0, Dst: 2, Weight: 1}, {Src: 1, Dst: 2, Weight: 1}}
	b, st := NewBuilderFromEdges(4, base), NewStoreFromEdges(4, base)
	add := func(s, d VertexID, w float32) Update { return Update{Edge: Edge{Src: s, Dst: d, Weight: w}} }
	del := func(s, d VertexID) Update { return Update{Edge: Edge{Src: s, Dst: d}, Delete: true} }
	for i, ups := range [][]Update{
		{del(0, 2)},
		{add(3, 2, 5), add(0, 3, 1)},
		{add(0, 1, 2), del(0, 1), add(0, 1, 3)},
		{},
		{add(1, 2, 7), del(1, 2), add(3, 1, 1)},
		{add(1, 2, 2)},
	} {
		label := fmt.Sprintf("batch %d", i)
		matchBuilder(t, label, b, st, ups)
		res := st.res
		if i == 1 && (!slices.Equal(res.Affected, []VertexID{2, 3}) || len(res.AddedEdges) != 2) {
			t.Fatalf("%s: Affected %v, AddedEdges %v; want [2 3] and both adds", label, res.Affected, res.AddedEdges)
		}
		for v, m := range st.touch {
			if (m != 0) != slices.Contains(res.Affected, VertexID(v)) {
				t.Fatalf("%s: vertex %d has mark %d, Affected %v", label, v, m, res.Affected)
			}
		}
	}
}

// TestStoreHighDegreeSpill forces a vertex far past the inline slab so the
// indexed path (insert, reweight, delete with swap-remove and tombstones,
// rehash, in-place rebuild) is exercised, then checks against the Builder.
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
	// Constant-degree churn over fresh keys (a window sliding round a ring
	// of IDs): deletes leave tombstones the adds mostly do not reuse, so
	// the table fills and is rebuilt again and again at its own size — in
	// place, allocating nothing — while swap-removes move edges from the
	// last chunk into the head and the other chunks.
	const deg, ring = 300, 1024
	cs := NewStore(ring + 1)
	for i := 1; i <= deg; i++ {
		cs.AddEdge(hub, VertexID(i), 0)
	}
	cl := cs.out.logs.at(cs.out.hdr[hub].loc &^ locSpilled)
	hr := cl.hub
	table, lo, rebuilds := &cl.index[0], 0, 0
	churn := func() {
		for k := 0; k < ring; k++ {
			tombs := hr.tombs
			cs.DeleteEdge(hub, VertexID(1+lo%ring))
			cs.AddEdge(hub, VertexID(1+(lo+deg)%ring), float32(lo))
			if hr.tombs < tombs {
				rebuilds++
			}
			lo++
		}
	}
	if allocs := testing.AllocsPerRun(10, churn); allocs != 0 {
		t.Fatalf("constant-degree churn on an indexed hub: %v allocs per %d delete/add pairs, want 0", allocs, ring)
	}
	if rebuilds == 0 || &cl.index[0] != table || cs.OutDegree(hub) != deg {
		t.Fatalf("after churn: %d rebuilds, table moved %v, degree %d; want rebuilds in place at degree %d",
			rebuilds, &cl.index[0] != table, cs.OutDegree(hub), deg)
	}
	if want := (deg - storeLinearMax + storeChunkCap - 1) / storeChunkCap; len(hr.chunks) != want || int(cs.out.chunks.pool.issued) != want {
		t.Fatalf("degree-%d hub holds %d chunks, %d issued; want %d", deg, len(hr.chunks), cs.out.chunks.pool.issued, want)
	}
	for k := lo; k < lo+deg; k++ {
		if w, ok := cs.EdgeWeight(hub, VertexID(1+k%ring)); !ok || w != float32(k-deg) {
			t.Fatalf("after churn, edge 0→%d = (%v,%v), want (%d,true)", 1+k%ring, w, ok, k-deg)
		}
	}
	t.Logf("%d in-place rebuilds over %d delete/add pairs", rebuilds, lo)
}

// indexCensus checks v's table in a: one word per slot up to 65,536
// slots and two above, every live position filed once, tombstones as
// counted. It returns the slot count, the table's first word, the
// tombstone count and v's newest neighbour (its last log position).
func indexCensus[W weight](t *testing.T, label string, a *adjacency[W], v VertexID) (int, *uint16, int, VertexID) {
	t.Helper()
	l := a.logs.at(a.hdr[v].loc &^ locSpilled)
	slots, words := l.slots(), 1
	if slots > 1<<16 {
		words = 2
	}
	if len(l.index) != words*slots {
		t.Fatalf("%s: vertex %d's table has %d slots in %d words, want %d per slot", label, v, slots, len(l.index), words)
	}
	deg, live, tombs := int(a.hdr[v].deg), 0, 0
	filed := make([]bool, deg)
	for i := 0; i < slots; i++ {
		switch p := l.slot(uint32(i)); {
		case p == indexTomb:
			tombs++
		case p == 0:
		case int(p) > deg || filed[p-1]:
			t.Fatalf("%s: vertex %d's slot %d holds position %d at degree %d, or twice", label, v, i, p-1, deg)
		default:
			filed[p-1] = true
			live++
		}
	}
	if live != deg || tombs != l.hub.tombs {
		t.Fatalf("%s: vertex %d's table files %d positions and %d tombstones; degree %d, %d counted", label, v, live, tombs, deg, l.hub.tombs)
	}
	newest, _ := l.at(deg - 1)
	return slots, &l.index[0], tombs, *newest
}

// TestStoreIndexWidth carries out-hub 0 and in-hub 1 past 49,152 edges,
// where their tables double from 65,536 one-word slots to 131,072 two-word
// ones, with deletes, re-weights and re-adds in every batch; then slides
// each at constant degree (delete the newest neighbour, add a fresh one)
// until tombstones force a same-size rebuild, which must clear the wide
// table in place. The census and matchBuilder run after every batch,
// sameGraph at the crossing and at the end.
func TestStoreIndexWidth(t *testing.T) {
	const climb, batch, nv = 80_000, 4096, 160_000
	st, b := NewStore(nv), NewBuilder(nv)
	rng := rand.New(rand.NewSource(3))
	hubs := []struct {
		census func(label string) (slots int, first *uint16, tombs int, newest VertexID)
		upd    func(u VertexID, w float32, del bool) Update
	}{
		{func(label string) (int, *uint16, int, VertexID) { return indexCensus(t, label, &st.out, 0) },
			func(u VertexID, w float32, del bool) Update {
				return Update{Edge: Edge{Src: 0, Dst: u, Weight: w}, Delete: del}
			}},
		{func(label string) (int, *uint16, int, VertexID) { return indexCensus(t, label, &st.in, 1) },
			func(u VertexID, w float32, del bool) Update {
				return Update{Edge: Edge{Src: u, Dst: 1, Weight: w}, Delete: del}
			}},
	}
	next, narrowMax, crossed := VertexID(2), 0, false
	var gone []VertexID
	for next < climb {
		var ups []Update
		for _, u := range gone { // re-add the last batch's deletes
			for _, h := range hubs {
				ups = append(ups, h.upd(u, 1, false))
			}
		}
		gone = gone[:0]
		for k := 0; k < batch && next < climb; k, next = k+1, next+1 {
			for _, h := range hubs {
				ups = append(ups, h.upd(next, 1, false))
			}
			if k%64 == 63 { // delete and re-weight earlier neighbours
				u, w := VertexID(2+rng.Intn(int(next-2))), VertexID(2+rng.Intn(int(next-2)))
				gone = append(gone, u)
				for _, h := range hubs {
					ups = append(ups, h.upd(u, 0, true), h.upd(w, float32(2+k), false))
				}
			}
		}
		label := fmt.Sprintf("climb to %d", next)
		matchBuilder(t, label, b, st, ups)
		wide := false
		for _, h := range hubs {
			slots, _, _, _ := h.census(label)
			if slots <= 1<<16 {
				narrowMax = max(narrowMax, slots)
			}
			wide = wide || slots > 1<<16
		}
		if wide && !crossed {
			crossed = true
			sameGraph(t, label, b, st)
		}
	}
	if narrowMax != 1<<16 || !crossed {
		t.Fatalf("climb: largest one-word table %d slots, crossed %v; want 65536 and a crossing", narrowMax, crossed)
	}
	for i, h := range hubs {
		slots, first, tombs, newest := h.census("slide")
		for rounds := 0; ; rounds++ {
			if rounds == 16 {
				t.Fatalf("hub %d: no same-size rebuild after %d constant-degree pairs", i, rounds*batch)
			}
			ups := make([]Update, 0, 2*batch)
			for k := 0; k < batch; k++ {
				ups = append(ups, h.upd(newest, 0, true), h.upd(next, float32(k), false))
				newest, next = next, next+1
			}
			label := fmt.Sprintf("hub %d slide round %d", i, rounds)
			matchBuilder(t, label, b, st, ups)
			s, f, after, _ := h.census(label)
			if s != slots || f != first {
				t.Fatalf("%s: table went from %d to %d slots, moved %v", label, slots, s, f != first)
			}
			if after < tombs { // a pair never lowers the count: rebuilt
				t.Logf("hub %d: rebuilt in place at %d slots after %d constant-degree pairs", i, slots, (rounds+1)*batch)
				break
			}
			tombs = after
		}
	}
	sameGraph(t, "end", b, st)
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
// slab and swap-removes from both representations, and of a hub stream
// that indexes them. The row shapes the writer branches on, unsorted
// rows in every tier among them, must all have occurred, so the test
// cannot quietly stop covering one.
func TestStoreWriteBinaryMatchesSeal(t *testing.T) {
	var sortedRow, isolated bool
	unsorted := map[string]bool{} // by tier
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
			ns := outRow(st, VertexID(v))
			switch {
			case len(ns) == 0:
				isolated = true
			case len(ns) > 1 && slices.IsSorted(ns):
				sortedRow = true
			case len(ns) > 1:
				unsorted[tierOf(&st.out, VertexID(v))] = true
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
	rng := rand.New(rand.NewSource(5))
	st := NewStore(2)
	for batch := 0; batch < 12; batch++ {
		st.Apply(hubUpdates(rng, 150, 200, 0.2))
		check(fmt.Sprintf("hub batch %d", batch), st)
	}
	if !sortedRow || !isolated || !unsorted["inline"] || !unsorted["linear"] || !unsorted["indexed"] {
		t.Fatalf("row shapes covered: sorted %v, isolated %v, unsorted by tier %v; want all, unsorted in all three tiers",
			sortedRow, isolated, unsorted)
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
