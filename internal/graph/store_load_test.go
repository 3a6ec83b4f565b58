package graph

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// storeByInserts is the store an AddEdge per edge leaves, growing the
// vertex set as the edges name new IDs: the loop NewStoreFromEdges
// replaced, kept as its oracle.
func storeByInserts(numVertices int, edges []Edge) *Store {
	st := NewStore(numVertices)
	for _, e := range edges {
		st.ensure(e.Src)
		st.ensure(e.Dst)
		st.AddEdge(e.Src, e.Dst, e.Weight)
	}
	return st
}

// rowBits is v's row in a, its runs concatenated, with the weights as
// bits: none in the in-edge mirror, which holds IDs only.
func rowBits[W weight](a *adjacency[W], v VertexID) ([]VertexID, []uint32) {
	var ns []VertexID
	var ws []uint32
	for r := 0; ; r++ {
		rn, rw := a.run(v, r)
		if len(rn) == 0 {
			return ns, ws
		}
		ns = append(ns, rn...)
		for _, w := range rw {
			if w, ok := any(w).(float32); ok {
				ws = append(ws, math.Float32bits(w))
			}
		}
	}
}

// sameStore checks got holds want's graph in want's shape: the counts,
// then per vertex and direction (sameAdjacency) the row order, the
// out-weights' bits, the tier, a log's head capacity, table size and
// chunk count, and last the WriteBinary bytes.
func sameStore(t *testing.T, label string, want, got *Store) {
	t.Helper()
	if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: %d vertices, %d edges; want %d, %d", label, got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	sameAdjacency(t, label+": out", &want.out, &got.out)
	sameAdjacency(t, label+": in", &want.in, &got.in)
	var wantBin, gotBin bytes.Buffer
	if err := want.WriteBinary(&wantBin); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteBinary(&gotBin); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBin.Bytes(), gotBin.Bytes()) {
		t.Fatalf("%s: WriteBinary differs", label)
	}
}

// sameAdjacency is sameStore's check of one direction. A weight head's
// capacity is checked only where weights take bytes: appending to a
// zero-size slice reports its length as its capacity.
func sameAdjacency[W weight](t *testing.T, label string, want, got *adjacency[W]) {
	t.Helper()
	var zero W
	weighted := unsafe.Sizeof(zero) > 0
	for v := range VertexID(len(want.hdr)) {
		wn, ww := rowBits(want, v)
		gn, gw := rowBits(got, v)
		if !slices.Equal(wn, gn) || !slices.Equal(ww, gw) {
			t.Fatalf("%s-row of %d is %v %v, want %v %v", label, v, gn, gw, wn, ww)
		}
		if wt, gt := tierOf(want, v), tierOf(got, v); wt != gt {
			t.Fatalf("%s-row of %d (degree %d) is %s, want %s", label, v, len(wn), gt, wt)
		}
		if want.hdr[v].loc&locSpilled == 0 {
			continue
		}
		wl, gl := want.logs.at(want.hdr[v].loc&^locSpilled), got.logs.at(got.hdr[v].loc&^locSpilled)
		if cap(wl.nbr) != cap(gl.nbr) || weighted && cap(wl.wgt) != cap(gl.wgt) || len(wl.index) != len(gl.index) {
			t.Fatalf("%s-log of %d (degree %d): head cap %d/%d, table %d words; want %d/%d, %d",
				label, v, len(wn), cap(gl.nbr), cap(gl.wgt), len(gl.index), cap(wl.nbr), cap(wl.wgt), len(wl.index))
		}
		if wl.hub != nil && len(wl.hub.chunks) != len(gl.hub.chunks) {
			t.Fatalf("%s-log of %d holds %d chunks, want %d", label, v, len(gl.hub.chunks), len(wl.hub.chunks))
		}
	}
}

// sameAsInserts holds both bulk loaders to the AddEdge loop:
// NewStoreFromEdges on edges, and NewStoreFromSnapshot on the sealed
// result against the loop over its edge list, with and without a CSC
// mirror.
func sameAsInserts(t *testing.T, label string, numVertices int, edges []Edge) {
	t.Helper()
	st := NewStoreFromEdges(numVertices, edges)
	sameStore(t, label, storeByInserts(numVertices, edges), st)
	snap := st.Seal()
	want := storeByInserts(snap.NumVertices, snap.EdgeList())
	sameStore(t, label+" (snapshot)", want, NewStoreFromSnapshot(snap))
	snap.InOffsets, snap.InNeighbors, snap.InWeights = nil, nil, nil
	sameStore(t, label+" (snapshot without CSC)", want, NewStoreFromSnapshot(snap))
}

// TestStoreFromEdgesMatchesInserts holds the bulk loaders to the AddEdge
// loop on the inputs it has to get right: no edges, repeated edges with
// differing weights in every tier, self-loops, IDs past numVertices, a
// snapshot row with a repeat, random hub-skewed lists through every
// tier, and an out-hub and an in-hub past 49,152 edges, where the table
// turns two words wide.
func TestStoreFromEdgesMatchesInserts(t *testing.T) {
	sameAsInserts(t, "nil", 0, nil)
	sameAsInserts(t, "no edges", 7, []Edge{})

	var dups []Edge
	for _, deg := range []int{2, storeInlineCap, storeInlineCap + 1, 20, storeLinearMax, storeLinearMax + 1, 300} {
		src := VertexID(deg)
		for k := range 3 * deg { // each neighbour three times, interleaved
			dups = append(dups, Edge{Src: src, Dst: VertexID(1000 + k%deg), Weight: float32(k)})
		}
	}
	sameAsInserts(t, "repeats", 10, dups)

	loops := []Edge{{0, 0, 1}, {1, 1, 2}, {1, 0, 3}, {0, 1, 4}, {1, 1, 5}}
	for u := range VertexID(100) {
		loops = append(loops, Edge{Src: 2, Dst: 2 + u%70, Weight: float32(u)})
	}
	sameAsInserts(t, "self-loops", 3, loops)

	sameAsInserts(t, "IDs past numVertices", 2, []Edge{{5, 1, 1}, {0, 40, 2}, {40, 5, 3}, {1, 1, 4}})

	// ReadBinary accepts a row that repeats a neighbour: rows need only
	// be sorted.
	snap := &Snapshot{
		NumVertices: 3,
		Offsets:     []uint64{0, 4, 4, 6},
		Neighbors:   []VertexID{1, 1, 2, 2, 0, 0},
		Weights:     []float32{1, 2, 3, 4, 5, 6},
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	sameStore(t, "snapshot repeats", storeByInserts(3, snap.EdgeList()), NewStoreFromSnapshot(snap))

	rng := rand.New(rand.NewSource(7))
	for seed := range 4 {
		var es []Edge
		for range 4000 {
			e := Edge{Src: VertexID(rng.Intn(200)), Dst: VertexID(rng.Intn(200)), Weight: float32(rng.Intn(8))}
			switch rng.Intn(4) {
			case 0:
				e.Src = VertexID(rng.Intn(2))
			case 1:
				e.Dst = VertexID(rng.Intn(2))
			}
			es = append(es, e)
		}
		sameAsInserts(t, fmt.Sprintf("hub-skewed %d", seed), 50*seed, es)
	}

	const wide = 50_000
	var hubs []Edge
	for u := range VertexID(wide) {
		hubs = append(hubs, Edge{Src: 0, Dst: 2 + u, Weight: float32(u % 13)}, Edge{Src: 2 + u, Dst: 1, Weight: 1})
		if u%1000 == 999 {
			hubs = append(hubs, Edge{Src: 0, Dst: 2 + u/2, Weight: 99}) // a repeat deep in the hub
		}
	}
	st := NewStoreFromEdges(wide+2, hubs)
	for v, slots := range []int{tableSlots(&st.out, 0), tableSlots(&st.in, 1)} {
		if slots <= indexNarrowSlots {
			t.Fatalf("hub %d's table has %d slots, want past %d", v, slots, indexNarrowSlots)
		}
	}
	sameAsInserts(t, "wide hubs", wide+2, hubs)
}
