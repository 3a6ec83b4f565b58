package graph

import (
	"fmt"
	"sort"
)

// Store is the mutable production graph representation: a GraphTango-style
// hybrid adjacency that makes single-edge insert/delete/reweight O(degree)
// instead of the O(|E|) CSR rebuild the Builder/Snapshot pair pays per
// batch.
//
// Layout per vertex and per direction (out-edges and an in-edge mirror,
// required by the monotonic deletion re-gather):
//
//   - degree <= storeInlineCap: neighbours live inline in a fixed-width
//     slab (storeInlineCap slots per vertex in one flat array), so the
//     common low-degree case is a single cache line with zero pointer
//     chasing;
//   - degree >  storeInlineCap: the vertex spills to open-addressing hash
//     adjacency over a dense per-vertex edge log — O(1) expected lookup/
//     insert/delete, dense insertion-order iteration for the hot loops.
//
// Iteration order over a vertex's neighbours is insertion order, NOT the
// sorted order Snapshot guarantees; Seal() materialises a sorted immutable
// CSR/CSC Snapshot for code that wants one. Monotonic engines are
// order-insensitive (selection over the same candidate set), which is what
// lets the native engine run directly on the Store.
//
// A Store is not safe for concurrent mutation; the native engine mutates
// it single-threaded between propagation phases and only reads it during
// parallel propagation.
type Store struct {
	numVertices int
	numEdges    int
	out         adjacency
	in          adjacency

	// Apply scratch, reused across batches so the steady-state ingest
	// path allocates nothing (see ApplyReusing).
	res        ApplyResult
	touchEpoch []uint32
	epoch      uint32
}

// storeInlineCap is the inline slab width: vertices at or below this
// degree never touch a hash table. Four (dst,weight) pairs is 32 bytes
// per direction — half a cache line — and covers the long tail of a
// power-law degree distribution.
const storeInlineCap = 4

// adjacency is one direction (out- or in-edges) of the hybrid format.
type adjacency struct {
	deg   []uint32   // per-vertex live degree
	nbr   []VertexID // inline slab: storeInlineCap slots per vertex
	wgt   []float32  // parallel to nbr
	spill []*hashAdj // non-nil once a vertex outgrows the slab
}

func (a *adjacency) grow(n int) {
	for len(a.deg) < n {
		a.deg = append(a.deg, 0)
		a.spill = append(a.spill, nil)
		for i := 0; i < storeInlineCap; i++ {
			a.nbr = append(a.nbr, 0)
			a.wgt = append(a.wgt, 0)
		}
	}
}

// insert adds or reweights the neighbour u of v; it reports whether a new
// edge slot was created (false = weight overwrite).
func (a *adjacency) insert(v, u VertexID, w float32) bool {
	if sp := a.spill[v]; sp != nil {
		if sp.insert(u, w) {
			a.deg[v]++
			return true
		}
		return false
	}
	base := int(v) * storeInlineCap
	d := int(a.deg[v])
	for i := 0; i < d; i++ {
		if a.nbr[base+i] == u {
			a.wgt[base+i] = w
			return false
		}
	}
	if d < storeInlineCap {
		a.nbr[base+d] = u
		a.wgt[base+d] = w
		a.deg[v]++
		return true
	}
	// Spill: move the inline slab into a fresh hash adjacency.
	sp := newHashAdj(2 * storeInlineCap)
	for i := 0; i < d; i++ {
		sp.insert(a.nbr[base+i], a.wgt[base+i])
	}
	sp.insert(u, w)
	a.spill[v] = sp
	a.deg[v]++
	return true
}

// delete removes the neighbour u of v, reporting whether it existed.
func (a *adjacency) delete(v, u VertexID) bool {
	if sp := a.spill[v]; sp != nil {
		if sp.remove(u) {
			a.deg[v]--
			return true
		}
		return false
	}
	base := int(v) * storeInlineCap
	d := int(a.deg[v])
	for i := 0; i < d; i++ {
		if a.nbr[base+i] == u {
			// Swap-remove keeps the live prefix dense.
			a.nbr[base+i] = a.nbr[base+d-1]
			a.wgt[base+i] = a.wgt[base+d-1]
			a.deg[v]--
			return true
		}
	}
	return false
}

// get returns the weight of the neighbour u of v, if present.
func (a *adjacency) get(v, u VertexID) (float32, bool) {
	if sp := a.spill[v]; sp != nil {
		return sp.get(u)
	}
	base := int(v) * storeInlineCap
	d := int(a.deg[v])
	for i := 0; i < d; i++ {
		if a.nbr[base+i] == u {
			return a.wgt[base+i], true
		}
	}
	return 0, false
}

// edges returns v's neighbour and weight slices in insertion order,
// aliasing internal storage (the inline slab prefix or the spill log).
// Closure-free so the engines' hot loops stay allocation-free; the slices
// are invalidated by any mutation of v's adjacency.
func (a *adjacency) edges(v VertexID) ([]VertexID, []float32) {
	if sp := a.spill[v]; sp != nil {
		return sp.nbr, sp.wgt
	}
	base := int(v) * storeInlineCap
	d := int(a.deg[v])
	return a.nbr[base : base+d], a.wgt[base : base+d]
}

// forEach visits v's neighbours in insertion order. f must not mutate the
// adjacency.
func (a *adjacency) forEach(v VertexID, f func(u VertexID, w float32)) {
	ns, ws := a.edges(v)
	for i, u := range ns {
		f(u, ws[i])
	}
}

// hashAdj is the spilled high-degree representation: a dense edge log
// (insertion-order neighbour/weight arrays) indexed by a linear-probing
// open-addressing table mapping destination ID to log position. Deletion
// swap-removes from the log so it stays dense; the vacated table slot
// becomes a tombstone and the table is rebuilt when tombstones pile up.
type hashAdj struct {
	nbr   []VertexID // dense edge log
	wgt   []float32  // parallel to nbr
	keys  []VertexID // open-addressing table keys (hashEmpty / hashTomb)
	idxs  []uint32   // parallel to keys: index into nbr
	tombs int
}

const (
	hashEmpty = ^VertexID(0)     // never a valid vertex ID in practice:
	hashTomb  = ^VertexID(0) - 1 // IDs are dense from 0 and bounded by V
)

func newHashAdj(capHint int) *hashAdj {
	size := 8
	for size < capHint*2 {
		size *= 2
	}
	h := &hashAdj{
		nbr:  make([]VertexID, 0, capHint), //tdgraph:allow hotalloc spill promotion: amortized one-time growth, not steady state
		wgt:  make([]float32, 0, capHint),  //tdgraph:allow hotalloc spill promotion: amortized one-time growth, not steady state
		keys: make([]VertexID, size),       //tdgraph:allow hotalloc spill promotion: amortized one-time growth, not steady state
		idxs: make([]uint32, size),         //tdgraph:allow hotalloc spill promotion: amortized one-time growth, not steady state
	}
	for i := range h.keys {
		h.keys[i] = hashEmpty
	}
	return h
}

// slotHash is Fibonacci hashing over the table size (a power of two).
func slotHash(u VertexID, mask uint32) uint32 {
	return (u * 2654435769) & mask
}

func (h *hashAdj) insert(u VertexID, w float32) bool {
	mask := uint32(len(h.keys) - 1)
	i := slotHash(u, mask)
	free := -1
	for {
		switch k := h.keys[i]; k {
		case u:
			h.wgt[h.idxs[i]] = w
			return false
		case hashTomb:
			if free < 0 {
				free = int(i)
			}
		case hashEmpty:
			if free < 0 {
				free = int(i)
			} else {
				// Re-using a tombstone shrinks the probe chain debt.
				h.tombs--
			}
			h.keys[free] = u
			h.idxs[free] = uint32(len(h.nbr))
			h.nbr = append(h.nbr, u)
			h.wgt = append(h.wgt, w)
			h.maybeGrow()
			return true
		}
		i = (i + 1) & mask
	}
}

func (h *hashAdj) remove(u VertexID) bool {
	mask := uint32(len(h.keys) - 1)
	i := slotHash(u, mask)
	for {
		switch k := h.keys[i]; k {
		case u:
			j := h.idxs[i]
			h.keys[i] = hashTomb
			h.tombs++
			last := uint32(len(h.nbr) - 1)
			if j != last {
				moved := h.nbr[last]
				h.nbr[j] = moved
				h.wgt[j] = h.wgt[last]
				h.repoint(moved, j)
			}
			h.nbr = h.nbr[:last]
			h.wgt = h.wgt[:last]
			return true
		case hashEmpty:
			return false
		}
		i = (i + 1) & mask
	}
}

// repoint updates the table entry of key u to log index j (u is known to
// be present).
func (h *hashAdj) repoint(u VertexID, j uint32) {
	mask := uint32(len(h.keys) - 1)
	i := slotHash(u, mask)
	for h.keys[i] != u {
		i = (i + 1) & mask
	}
	h.idxs[i] = j
}

func (h *hashAdj) get(u VertexID) (float32, bool) {
	mask := uint32(len(h.keys) - 1)
	i := slotHash(u, mask)
	for {
		switch k := h.keys[i]; k {
		case u:
			return h.wgt[h.idxs[i]], true
		case hashEmpty:
			return 0, false
		}
		i = (i + 1) & mask
	}
}

// maybeGrow rebuilds the table when live keys plus tombstones pass 3/4
// occupancy, sizing for the live count so a churn-heavy vertex does not
// grow without bound.
func (h *hashAdj) maybeGrow() {
	if (len(h.nbr)+h.tombs)*4 < len(h.keys)*3 {
		return
	}
	size := len(h.keys)
	if len(h.nbr)*4 >= size*3 {
		size *= 2
	}
	keys := make([]VertexID, size) //tdgraph:allow hotalloc doubling rehash: amortized O(1) per insert, pinned by the zero-alloc steady-state benchmark
	for i := range keys {
		keys[i] = hashEmpty
	}
	idxs := make([]uint32, size) //tdgraph:allow hotalloc doubling rehash: amortized O(1) per insert, pinned by the zero-alloc steady-state benchmark
	mask := uint32(size - 1)
	for j, u := range h.nbr {
		i := slotHash(u, mask)
		for keys[i] != hashEmpty {
			i = (i + 1) & mask
		}
		keys[i] = u
		idxs[i] = uint32(j)
	}
	h.keys, h.idxs, h.tombs = keys, idxs, 0
}

// NewStore returns an empty store over numVertices isolated vertices.
func NewStore(numVertices int) *Store {
	st := &Store{}
	st.growTo(numVertices)
	return st
}

// NewStoreFromEdges builds the initial graph from an edge list, growing
// the vertex set to cover every referenced ID. Duplicate edges keep the
// last weight seen — the same contract as NewBuilderFromEdges.
func NewStoreFromEdges(numVertices int, edges []Edge) *Store {
	st := NewStore(numVertices)
	for _, e := range edges {
		st.ensure(e.Src)
		st.ensure(e.Dst)
		st.AddEdge(e.Src, e.Dst, e.Weight)
	}
	return st
}

// NewStoreFromSnapshot loads an immutable snapshot into a fresh store
// (the checkpoint-restore path of the native engine).
func NewStoreFromSnapshot(s *Snapshot) *Store {
	st := NewStore(s.NumVertices)
	for v := 0; v < s.NumVertices; v++ {
		ns := s.OutNeighbors(VertexID(v))
		ws := s.OutWeights(VertexID(v))
		for i := range ns {
			st.AddEdge(VertexID(v), ns[i], ws[i])
		}
	}
	return st
}

func (st *Store) growTo(n int) {
	st.out.grow(n)
	st.in.grow(n)
	for len(st.touchEpoch) < n {
		st.touchEpoch = append(st.touchEpoch, 0)
	}
	if n > st.numVertices {
		st.numVertices = n
	}
}

func (st *Store) ensure(v VertexID) {
	if int(v) >= st.numVertices {
		st.growTo(int(v) + 1)
	}
}

// NumVertices returns the current vertex count.
func (st *Store) NumVertices() int { return st.numVertices }

// NumEdges returns the current directed edge count.
func (st *Store) NumEdges() int { return st.numEdges }

// OutDegree returns the current out-degree of v.
func (st *Store) OutDegree(v VertexID) int { return int(st.out.deg[v]) }

// InDegree returns the current in-degree of v.
func (st *Store) InDegree(v VertexID) int { return int(st.in.deg[v]) }

// HasEdge reports whether src→dst currently exists.
func (st *Store) HasEdge(src, dst VertexID) bool {
	if int(src) >= st.numVertices {
		return false
	}
	_, ok := st.out.get(src, dst)
	return ok
}

// EdgeWeight returns the current weight of src→dst, if present.
func (st *Store) EdgeWeight(src, dst VertexID) (float32, bool) {
	if int(src) >= st.numVertices {
		return 0, false
	}
	return st.out.get(src, dst)
}

// AddEdge inserts src→dst with the given weight, overwriting the weight
// if the edge exists. It reports whether a new edge was created. Cost is
// O(1) expected (inline scan or one hash probe) — never O(|E|).
func (st *Store) AddEdge(src, dst VertexID, w float32) bool {
	if int(src) >= st.numVertices || int(dst) >= st.numVertices {
		panic(fmt.Sprintf("graph: Store.AddEdge(%d,%d) out of range (V=%d)", src, dst, st.numVertices))
	}
	if !st.out.insert(src, dst, w) {
		st.in.insert(dst, src, w) // reweight the mirror too
		return false
	}
	st.in.insert(dst, src, w)
	st.numEdges++
	return true
}

// DeleteEdge removes src→dst and reports whether it existed.
func (st *Store) DeleteEdge(src, dst VertexID) bool {
	if int(src) >= st.numVertices || int(dst) >= st.numVertices {
		return false
	}
	if !st.out.delete(src, dst) {
		return false
	}
	st.in.delete(dst, src)
	st.numEdges--
	return true
}

// OutEdges returns src's out-neighbour and weight slices in insertion
// order. The slices alias store internals — do not mutate them, and do
// not hold them across a store mutation. This is the allocation-free
// iteration primitive the native engine's hot loop uses.
func (st *Store) OutEdges(src VertexID) ([]VertexID, []float32) {
	return st.out.edges(src)
}

// InEdges returns dst's in-neighbour and weight slices, with the same
// aliasing contract as OutEdges.
func (st *Store) InEdges(dst VertexID) ([]VertexID, []float32) {
	return st.in.edges(dst)
}

// Apply applies a batch of updates in order and returns what changed,
// with exactly the Builder.Apply semantics: a re-add with a different
// weight is recorded as delete(old)+add(new), Affected lists distinct
// destination vertices of effective updates in first-touch order.
//
// The returned result's slices are owned by the store and reused by the
// next Apply — callers that retain them across batches must copy. This
// aliasing is what makes the steady-state ingest path allocation-free.
func (st *Store) Apply(batch []Update) ApplyResult {
	st.epoch++
	res := &st.res
	res.Added, res.Deleted, res.WeightChanged, res.Skipped = 0, 0, 0, 0
	res.Affected = res.Affected[:0]
	res.AddedEdges = res.AddedEdges[:0]
	res.DeletedEdges = res.DeletedEdges[:0]
	//tdgraph:allow hotalloc non-escaping local closure: only invoked below in this frame, so it stays on the stack (TestSessionSteadyStateZeroAllocs pins 0 allocs/batch)
	affect := func(v VertexID) {
		if st.touchEpoch[v] != st.epoch {
			st.touchEpoch[v] = st.epoch
			res.Affected = append(res.Affected, v)
		}
	}
	for _, u := range batch {
		if u.Delete {
			if st.DeleteEdge(u.Edge.Src, u.Edge.Dst) {
				res.Deleted++
				res.DeletedEdges = append(res.DeletedEdges, u.Edge)
				affect(u.Edge.Dst)
			} else {
				res.Skipped++
			}
			continue
		}
		st.ensure(u.Edge.Src)
		st.ensure(u.Edge.Dst)
		if oldW, exists := st.out.get(u.Edge.Src, u.Edge.Dst); exists {
			if oldW == u.Edge.Weight {
				res.Skipped++
				continue
			}
			st.out.insert(u.Edge.Src, u.Edge.Dst, u.Edge.Weight)
			st.in.insert(u.Edge.Dst, u.Edge.Src, u.Edge.Weight)
			res.WeightChanged++
			res.DeletedEdges = append(res.DeletedEdges,
				Edge{Src: u.Edge.Src, Dst: u.Edge.Dst, Weight: oldW})
			res.AddedEdges = append(res.AddedEdges, u.Edge)
			affect(u.Edge.Dst)
			continue
		}
		st.AddEdge(u.Edge.Src, u.Edge.Dst, u.Edge.Weight)
		res.Added++
		res.AddedEdges = append(res.AddedEdges, u.Edge)
		affect(u.Edge.Dst)
	}
	// Only a delete or re-weight can have made an earlier add stale.
	if res.Deleted+res.WeightChanged > 0 {
		live := res.AddedEdges[:0]
		for _, e := range res.AddedEdges {
			if w, ok := st.out.get(e.Src, e.Dst); ok && w == e.Weight {
				live = append(live, e)
			}
		}
		res.AddedEdges = live
	}
	return *res
}

// Seal materialises the current graph as an immutable sorted CSR(+CSC)
// snapshot — the bridge for code that still wants the paper's array
// layout (audits, diffs, the simulated engines). O(V + E log d).
func (st *Store) Seal() *Snapshot {
	n := st.numVertices
	s := &Snapshot{
		NumVertices: n,
		Offsets:     make([]uint64, n+1),
		Neighbors:   make([]VertexID, 0, st.numEdges),
		Weights:     make([]float32, 0, st.numEdges),
	}
	row := &csrRow{}
	for v := 0; v < n; v++ {
		s.Offsets[v] = uint64(len(s.Neighbors))
		start := len(s.Neighbors)
		st.out.forEach(VertexID(v), func(u VertexID, w float32) {
			s.Neighbors = append(s.Neighbors, u)
			s.Weights = append(s.Weights, w)
		})
		row.n = s.Neighbors[start:]
		row.w = s.Weights[start:]
		if !sort.IsSorted(row) {
			sort.Sort(row)
		}
	}
	s.Offsets[n] = uint64(len(s.Neighbors))
	buildCSC(s)
	return s
}

// csrRow sorts one CSR row's neighbour/weight pair in place.
type csrRow struct {
	n []VertexID
	w []float32
}

func (r *csrRow) Len() int           { return len(r.n) }
func (r *csrRow) Less(i, j int) bool { return r.n[i] < r.n[j] }
func (r *csrRow) Swap(i, j int) {
	r.n[i], r.n[j] = r.n[j], r.n[i]
	r.w[i], r.w[j] = r.w[j], r.w[i]
}

// EdgeList flattens the store into a sorted edge slice (src-major,
// dst-sorted) — the same canonical order Snapshot.EdgeList produces, so
// the two representations compare directly in tests.
func (st *Store) EdgeList() []Edge {
	out := make([]Edge, 0, st.numEdges)
	var scratch []Edge
	for v := 0; v < st.numVertices; v++ {
		scratch = scratch[:0]
		st.out.forEach(VertexID(v), func(u VertexID, w float32) {
			scratch = append(scratch, Edge{Src: VertexID(v), Dst: u, Weight: w})
		})
		sort.Slice(scratch, func(i, j int) bool { return scratch[i].Dst < scratch[j].Dst })
		out = append(out, scratch...)
	}
	return out
}
