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
// Layout: a compact vertex table per direction (out-edges and an in-edge
// mirror, required by the monotonic deletion re-gather). Every vertex
// has one pointer-free 8-byte header, its degree and a location, and
// owns storage only for the edges it has, in GraphTango's three tiers:
//
//   - empty, degree 0 and never spilled: the header is all there is;
//   - inline, degree 1..storeInlineCap: the header names a block of
//     storeInlineCap neighbour and weight slots (one 32-byte line) from
//     a pool of fixed-size pages. A vertex that drops to degree 0 or
//     spills releases its block to a free list, and the next vertex to
//     need one reuses it before the pool grows;
//   - linear, degree up to storeLinearMax: the header names a dense edge
//     log, held by value in a page pool of its own, searched by scanning
//     it — at most four cache lines of IDs, no table to build or grow;
//   - indexed, above storeLinearMax: the same log plus an index-only
//     open-addressing table of log positions, O(1) expected lookup/
//     insert/delete.
//
// Pools grow by whole pages and never move a slot, so growth copies
// nothing and a visit reads the header, then the block or log. A spilled
// vertex keeps its log for good; deletes that bring its degree down to
// storeLinearMax/2 drop the index, and so does a rebuild that finds the
// degree back in the linear range. Deletion swap-removes in every tier,
// so iteration is one dense slice for the hot loops.
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
	sortKeys   []uint64 // WriteBinary's row-sort scratch, reused across saves
}

// storeInlineCap is the inline block width: vertices at or below this
// degree never spill. Four (dst,weight) pairs is 32 bytes per direction
// — half a cache line — and covers the long tail of a power-law degree
// distribution.
const storeInlineCap = 4

// storeLinearMax is the largest degree a spilled vertex serves by linear
// scan: 64 IDs are 256 bytes, four cache lines. Above it the log gains
// an index (EXPERIMENTS.md has the threshold sweep).
const storeLinearMax = 64

// adjacency is one direction (out- or in-edges) of the vertex table.
type adjacency struct {
	hdr    []vertexHeader
	blocks pagePool[inlineBlock]
	free   []uint32 // released block handles, reused before the pool grows
	logs   pagePool[edgeLog]
}

// vertexHeader is a vertex's live degree and the location of its edges:
// 0 for none, an inline block's handle + 1, or locSpilled | a log's
// handle.
type vertexHeader struct {
	deg, loc uint32
}

const locSpilled = 1 << 31

// inlineBlock holds an inline vertex's edges in its first deg slots.
type inlineBlock struct {
	nbr [storeInlineCap]VertexID
	wgt [storeInlineCap]float32
}

// poolPage is the slot count of a pool page: 8 KiB of inline blocks or
// 20 KiB of edge logs.
const poolPage = 256

// pagePool hands out slots of T from fixed-size pages by handle, a new
// page when the last is full, so a slot never moves and growth copies
// nothing but the page directory.
type pagePool[T any] struct {
	pages  [][]T
	issued uint32 // slots handed out; the next handle
}

func (p *pagePool[T]) alloc() uint32 {
	if p.issued%poolPage == 0 {
		p.pages = append(p.pages, make([]T, poolPage)) //tdgraph:allow hotalloc pool page: one per poolPage vertices that first gain an edge or spill, amortized like any append
	}
	p.issued++
	return p.issued - 1
}

func (p *pagePool[T]) at(h uint32) *T {
	return &p.pages[h/poolPage][h%poolPage]
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
	h := &a.hdr[v]
	if h.loc&locSpilled != 0 {
		old, existed := a.logs.at(h.loc&^locSpilled).insert(u, w)
		if !existed {
			h.deg++
		}
		return old, existed
	}
	if h.loc == 0 { // an empty vertex takes a block, a released one first
		if n := len(a.free); n > 0 {
			h.loc = a.free[n-1] + 1
			a.free = a.free[:n-1]
		} else {
			h.loc = a.blocks.alloc() + 1
		}
	}
	b, d := a.blocks.at(h.loc-1), h.deg
	if i := slices.Index(b.nbr[:d], u); i >= 0 {
		old := b.wgt[i]
		b.wgt[i] = w
		return old, true
	}
	h.deg++
	if d < storeInlineCap {
		b.nbr[d], b.wgt[d] = u, w
		return 0, false
	}
	// Spill: move the block into a fresh edge log (linear tier) and
	// release it.
	lh := a.logs.alloc()
	l := a.logs.at(lh)
	l.nbr = append(make([]VertexID, 0, 2*storeInlineCap), b.nbr[:]...) //tdgraph:allow hotalloc spill promotion: amortized one-time growth, not steady state
	l.wgt = append(make([]float32, 0, 2*storeInlineCap), b.wgt[:]...)  //tdgraph:allow hotalloc spill promotion: amortized one-time growth, not steady state
	a.free = append(a.free, h.loc-1)
	h.loc = locSpilled | lh
	l.insert(u, w)
	return 0, false
}

// delete removes the neighbour u of v, reporting whether it existed.
func (a *adjacency) delete(v, u VertexID) bool {
	h := &a.hdr[v]
	if h.loc&locSpilled != 0 {
		if !a.logs.at(h.loc &^ locSpilled).remove(u) {
			return false
		}
	} else {
		ns, ws := a.edges(v)
		i := slices.Index(ns, u)
		if i < 0 {
			return false
		}
		last := len(ns) - 1
		ns[i], ws[i] = ns[last], ws[last] // swap-remove keeps the live prefix dense
		if last == 0 {
			a.free = append(a.free, h.loc-1)
			h.loc = 0
		}
	}
	h.deg--
	return true
}

// get returns the weight of the neighbour u of v, if present.
func (a *adjacency) get(v, u VertexID) (float32, bool) {
	if h := a.hdr[v]; h.loc&locSpilled != 0 {
		l := a.logs.at(h.loc &^ locSpilled)
		if pos, _ := l.find(u); pos >= 0 {
			return l.wgt[pos], true
		}
		return 0, false
	}
	ns, ws := a.edges(v)
	if i := slices.Index(ns, u); i >= 0 {
		return ws[i], true
	}
	return 0, false
}

// edges returns v's neighbour and weight slices in insertion order,
// aliasing internal storage (the inline block's live prefix or the edge
// log). Closure-free so the engines' hot loops stay allocation-free; the
// slices are invalidated by any mutation of v's adjacency.
func (a *adjacency) edges(v VertexID) ([]VertexID, []float32) {
	switch h := a.hdr[v]; {
	case h.loc&locSpilled != 0:
		l := a.logs.at(h.loc &^ locSpilled)
		return l.nbr, l.wgt
	case h.loc != 0:
		b := a.blocks.at(h.loc - 1)
		return b.nbr[:h.deg], b.wgt[:h.deg]
	}
	return nil, nil
}

// forEach visits v's neighbours in insertion order. f must not mutate the
// adjacency.
func (a *adjacency) forEach(v VertexID, f func(u VertexID, w float32)) {
	ns, ws := a.edges(v)
	for i, u := range ns {
		f(u, ws[i])
	}
}

// edgeLog is a spilled vertex's adjacency, one slot of the log pool: a
// dense edge log (insertion-order neighbour/weight arrays) and, above
// storeLinearMax, an index-only linear-probing table. A table slot holds
// a log position + 1 (0 empty,
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
	st.out.hdr, st.in.hdr = extend(st.out.hdr, n), extend(st.in.hdr, n)
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
func (st *Store) OutDegree(v VertexID) int { return int(st.out.hdr[v].deg) }

// InDegree returns the current in-degree of v.
func (st *Store) InDegree(v VertexID) int { return int(st.in.hdr[v].deg) }

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
