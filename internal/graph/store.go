package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Store is the mutable production graph representation: a GraphTango-style
// hybrid adjacency that makes single-edge insert/delete/reweight O(degree)
// instead of the O(|E|) CSR rebuild the Builder/Snapshot pair pays per
// batch.
//
// Layout per vertex and per direction (out-edges and an in-edge mirror,
// required by the monotonic deletion re-gather), GraphTango's three
// tiers:
//
//   - inline, degree <= storeInlineCap: neighbours live in a fixed-width
//     slab (storeInlineCap slots per vertex in one flat array), so the
//     common low-degree case is a single cache line with zero pointer
//     chasing;
//   - linear, degree up to storeLinearMax: the vertex spills to its own
//     dense edge log and finds a neighbour by scanning it — at most four
//     cache lines of IDs, no table to build or grow;
//   - indexed, above storeLinearMax: the same log plus an index-only
//     open-addressing table of log positions, O(1) expected lookup/
//     insert/delete.
//
// A spilled vertex keeps its log for good; deletes that bring its degree
// down to storeLinearMax/2 drop the index, and so does a rebuild that
// finds the degree back in the linear range. Deletion swap-removes from
// the log in every tier, so iteration is one dense slice for the hot
// loops.
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
// degree never leave the slab. Four (dst,weight) pairs is 32 bytes per
// direction — half a cache line — and covers the long tail of a
// power-law degree distribution.
const storeInlineCap = 4

// storeLinearMax is the largest degree a spilled vertex serves by linear
// scan: 64 IDs are 256 bytes, four cache lines. Above it the log gains
// an index (EXPERIMENTS.md has the threshold sweep).
const storeLinearMax = 64

// adjacency is one direction (out- or in-edges) of the hybrid format.
type adjacency struct {
	deg   []uint32   // per-vertex live degree
	nbr   []VertexID // inline slab: storeInlineCap slots per vertex
	wgt   []float32  // parallel to nbr
	spill []*edgeLog // non-nil once a vertex outgrows the slab
}

func (a *adjacency) grow(n int) {
	a.deg = extend(a.deg, n)
	a.spill = extend(a.spill, n)
	a.nbr = extend(a.nbr, n*storeInlineCap)
	a.wgt = extend(a.wgt, n*storeInlineCap)
}

// extend zero-extends s to length n, growing its backing array at most
// once instead of element by element.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...) //tdgraph:allow hotalloc vertex-set growth: the compiler extends in place, amortized like any append
}

// insert adds or reweights the neighbour u of v; it returns the weight it
// overwrote and whether u was a neighbour already, so a caller learns
// both from the one lookup.
func (a *adjacency) insert(v, u VertexID, w float32) (float32, bool) {
	if l := a.spill[v]; l != nil {
		old, existed := l.insert(u, w)
		if !existed {
			a.deg[v]++
		}
		return old, existed
	}
	base := int(v) * storeInlineCap
	d := int(a.deg[v])
	for i := 0; i < d; i++ {
		if a.nbr[base+i] == u {
			old := a.wgt[base+i]
			a.wgt[base+i] = w
			return old, true
		}
	}
	a.deg[v]++
	if d < storeInlineCap {
		a.nbr[base+d] = u
		a.wgt[base+d] = w
		return 0, false
	}
	// Spill: move the inline slab into a fresh edge log (linear tier).
	l := &edgeLog{
		nbr: make([]VertexID, d, 2*storeInlineCap), //tdgraph:allow hotalloc spill promotion: amortized one-time growth, not steady state
		wgt: make([]float32, d, 2*storeInlineCap),  //tdgraph:allow hotalloc spill promotion: amortized one-time growth, not steady state
	}
	copy(l.nbr, a.nbr[base:])
	copy(l.wgt, a.wgt[base:])
	l.insert(u, w)
	a.spill[v] = l
	return 0, false
}

// delete removes the neighbour u of v, reporting whether it existed.
func (a *adjacency) delete(v, u VertexID) bool {
	if l := a.spill[v]; l != nil {
		if l.remove(u) {
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
	if l := a.spill[v]; l != nil {
		if pos, _ := l.find(u); pos >= 0 {
			return l.wgt[pos], true
		}
		return 0, false
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
	if l := a.spill[v]; l != nil {
		return l.nbr, l.wgt
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

// edgeLog is a spilled vertex's adjacency: a dense edge log (insertion-
// order neighbour/weight arrays) and, above storeLinearMax, an index-only
// linear-probing table. A table slot holds a log position + 1 (0 empty,
// indexTomb deleted) and keys are read through nbr, so any VertexID is a
// valid key. Deletion swap-removes from the log so it stays dense; the
// vacated slot becomes a tombstone and the table is rebuilt when
// tombstones pile up.
type edgeLog struct {
	nbr   []VertexID // dense edge log
	wgt   []float32  // parallel to nbr
	index []uint32   // nil in the linear tier
	tombs int
}

const indexTomb = ^uint32(0)

// slotHash is Fibonacci hashing over the table size (a power of two).
func slotHash(u VertexID, mask uint32) uint32 {
	return (u * 2654435769) & mask
}

// find returns u's log position, or -1. In the indexed tier slot is the
// table slot holding u or, if u is absent, the first reusable slot on its
// probe chain; it is -1 in the linear tier.
func (l *edgeLog) find(u VertexID) (pos, slot int) {
	if l.index == nil {
		return slices.Index(l.nbr, u), -1
	}
	mask := uint32(len(l.index) - 1)
	slot = -1
	for i := slotHash(u, mask); ; i = (i + 1) & mask {
		switch p := l.index[i]; {
		case p == 0:
			if slot < 0 {
				slot = int(i)
			}
			return -1, slot
		case p == indexTomb:
			if slot < 0 {
				slot = int(i)
			}
		case l.nbr[p-1] == u:
			return int(p - 1), int(i)
		}
	}
}

// insert adds or reweights u, returning the weight it overwrote and
// whether u was present.
func (l *edgeLog) insert(u VertexID, w float32) (float32, bool) {
	pos, slot := l.find(u)
	if pos >= 0 {
		old := l.wgt[pos]
		l.wgt[pos] = w
		return old, true
	}
	l.nbr = append(l.nbr, u)
	l.wgt = append(l.wgt, w)
	if slot >= 0 {
		if l.index[slot] == indexTomb {
			l.tombs-- // re-using a tombstone shrinks the probe chain debt
		}
		l.index[slot] = uint32(len(l.nbr))
	}
	// Live keys plus tombstones past 3/4 occupancy call for a rebuild; the
	// linear tier's absent table is always full, so reindex picks the tier.
	if (len(l.nbr)+l.tombs)*4 >= len(l.index)*3 {
		l.reindex()
	}
	return 0, false
}

// remove deletes u, reporting whether it was present.
func (l *edgeLog) remove(u VertexID) bool {
	pos, slot := l.find(u)
	if pos < 0 {
		return false
	}
	if slot >= 0 {
		l.index[slot] = indexTomb
		l.tombs++
	}
	last := len(l.nbr) - 1
	if pos != last {
		moved := l.nbr[last]
		l.nbr[pos] = moved
		l.wgt[pos] = l.wgt[last]
		if l.index != nil {
			_, s := l.find(moved) // still finds moved through nbr[last]
			l.index[s] = uint32(pos + 1)
		}
	}
	l.nbr = l.nbr[:last]
	l.wgt = l.wgt[:last]
	if l.index != nil && last <= storeLinearMax/2 {
		// Back to the linear tier. Waiting for half the threshold keeps
		// a vertex hovering at it from rebuilding a table per crossing.
		l.index, l.tombs = nil, 0
	}
	return true
}

// reindex rebuilds the table for the live count without tombstones,
// doubling it when live keys alone pass 3/4 occupancy, never shrinking
// it, and clearing it in place when the size holds. A log back in the
// linear range drops its table instead.
func (l *edgeLog) reindex() {
	l.tombs = 0
	if len(l.nbr) <= storeLinearMax {
		l.index = nil
		return
	}
	size := max(len(l.index), 8)
	for len(l.nbr)*4 >= size*3 {
		size *= 2
	}
	if size == len(l.index) {
		clear(l.index)
	} else {
		l.index = make([]uint32, size) //tdgraph:allow hotalloc doubling rehash: amortized O(1) per insert; a same-size rebuild reuses the table
	}
	mask := uint32(size - 1)
	for j, u := range l.nbr {
		i := slotHash(u, mask)
		for l.index[i] != 0 {
			i = (i + 1) & mask
		}
		l.index[i] = uint32(j + 1)
	}
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
	st.touchEpoch = extend(st.touchEpoch, n)
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
// O(1) expected (a scan of at most storeLinearMax neighbours, or one hash
// probe) — never O(|E|).
func (st *Store) AddEdge(src, dst VertexID, w float32) bool {
	if int(src) >= st.numVertices || int(dst) >= st.numVertices {
		panic(fmt.Sprintf("graph: Store.AddEdge(%d,%d) out of range (V=%d)", src, dst, st.numVertices))
	}
	_, existed := st.out.insert(src, dst, w)
	st.in.insert(dst, src, w) // adds the mirror, or reweights it
	if existed {
		return false
	}
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
		oldW, existed := st.out.insert(u.Edge.Src, u.Edge.Dst, u.Edge.Weight)
		if existed && oldW == u.Edge.Weight {
			res.Skipped++
			continue
		}
		st.in.insert(u.Edge.Dst, u.Edge.Src, u.Edge.Weight)
		if existed {
			res.WeightChanged++
			res.DeletedEdges = append(res.DeletedEdges,
				Edge{Src: u.Edge.Src, Dst: u.Edge.Dst, Weight: oldW})
		} else {
			st.numEdges++
			res.Added++
		}
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
