package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Store is the mutable production graph representation: a GraphTango-style
// hybrid adjacency that makes single-edge insert/delete/reweight O(degree)
// instead of the O(|E|) rebuild a sorted CSR pays per batch. It is the
// one mutable graph: Session, every cluster member and the simulator
// harness apply batches here, and Seal hands the engines that want the
// paper's arrays an immutable Snapshot.
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
//   - linear, degree up to storeLinearMax: the header names an edge log,
//     held by value in a page pool of its own, whose head arrays grow up
//     to storeLinearMax and are searched by scanning — at most four cache
//     lines of IDs, no table to build or grow;
//   - indexed, above storeLinearMax: the full head plus an index-only
//     open-addressing table of log positions (O(1) expected
//     lookup/insert/delete) — one 16-bit word per slot up to
//     indexNarrowSlots slots, which covers every hub below 49,152 edges,
//     two words above — and a hub record holding fixed chunks of
//     storeChunkCap edges for the positions past the head, so a hub
//     grows without copying.
//
// Pools grow by whole pages and never move a slot, so growth copies
// nothing but directories. A spilled vertex keeps its log for good;
// deletes that bring its degree down to storeLinearMax/2 drop the table
// and hub record, and so does a rebuild that finds the degree back in the
// linear range, freeing the record and its chunks for the next hub. Deletion
// swap-removes in every tier, so a row is dense: one run for the inline
// block or head, then one per chunk, which the hot loops walk in turn.
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
	res      ApplyResult
	touch    []uint8  // Apply's marks, non-zero only on res.Affected
	sortKeys []uint64 // WriteBinary's row-sort scratch, reused across saves
}

// Apply's touch marks: a vertex is in Affected, and an edge into it has
// also been deleted or re-weighted.
const (
	touchAffected = 1
	touchUndone   = 2
)

// storeInlineCap is the inline block width: vertices at or below this
// degree never spill. Four (dst,weight) pairs is 32 bytes per direction
// — half a cache line — and covers the long tail of a power-law degree
// distribution.
const storeInlineCap = 4

// storeLinearMax is the largest degree a spilled vertex serves by linear
// scan, and the size of a log's head: 64 IDs are 256 bytes, four cache
// lines. Above it the log gains an index (EXPERIMENTS.md has the
// threshold sweep).
const storeLinearMax = 64

// storeChunkCap is the edge capacity of one hub chunk: 64 IDs and 64
// weights, 512 bytes (EXPERIMENTS.md `storechunks` has the size sweep).
const storeChunkCap = 64

// adjacency is one direction (out- or in-edges) of the vertex table.
type adjacency struct {
	hdr    []vertexHeader
	blocks pagePool[inlineBlock]
	free   []uint32 // released block handles, reused before the pool grows
	logs   pagePool[edgeLog]
	chunks recycler[edgeChunk]
	hubs   recycler[hubRecord]
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

// poolPage is the slot count of a pool page: 8 KiB of inline blocks,
// 14 KiB of edge logs or hub records, 128 KiB of chunks.
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
		p.pages = append(p.pages, make([]T, poolPage)) //tdgraph:allow hotalloc pool page: one per poolPage vertices that first gain an edge, spill or become hubs, or per poolPage hub chunks; amortized like any append, and released slots are reused before a page is added
	}
	p.issued++
	return p.issued - 1
}

func (p *pagePool[T]) at(h uint32) *T {
	return &p.pages[h/poolPage][h%poolPage]
}

// recycler hands out pool slots by pointer — they never move, so a
// pointer is as stable as a handle and one load cheaper — taking
// released ones first.
type recycler[T any] struct {
	pool pagePool[T]
	free []*T
}

func (r *recycler[T]) get() *T {
	if n := len(r.free); n > 0 {
		x := r.free[n-1]
		r.free = r.free[:n-1]
		return x
	}
	return r.pool.at(r.pool.alloc())
}

func (r *recycler[T]) put(xs ...*T) { r.free = append(r.free, xs...) }

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
	wp, slot := a.lookup(v, u)
	if wp == nil {
		a.add(v, u, w, slot)
		return 0, false
	}
	old := *wp
	*wp = w
	return old, true
}

// add inserts u, which must not be a neighbour of v yet, into the table
// slot a lookup found free, or with slot -1 without a lookup — the
// in-edge mirror of an edge the out-edges have just reported new needs
// none: in the indexed tier it probes only for a free slot.
func (a *adjacency) add(v, u VertexID, w float32, slot int) {
	h := &a.hdr[v]
	if h.loc&locSpilled != 0 {
		l := a.logs.at(h.loc &^ locSpilled)
		if slot < 0 {
			slot = l.freeSlot(u)
		}
		a.push(h, l, slot, u, w)
		return
	}
	if h.loc == 0 { // an empty vertex takes a block, a released one first
		if n := len(a.free); n > 0 {
			h.loc = a.free[n-1] + 1
			a.free = a.free[:n-1]
		} else {
			h.loc = a.blocks.alloc() + 1
		}
	}
	b := a.blocks.at(h.loc - 1)
	if h.deg < storeInlineCap {
		b.nbr[h.deg], b.wgt[h.deg] = u, w
		h.deg++
		return
	}
	// Spill: move the block into a fresh edge log (linear tier) and
	// release it.
	lh := a.logs.alloc()
	l := a.logs.at(lh)
	l.nbr = append(make([]VertexID, 0, 2*storeInlineCap), b.nbr[:]...) //tdgraph:allow hotalloc spill promotion: amortized one-time growth, not steady state
	l.wgt = append(make([]float32, 0, 2*storeInlineCap), b.wgt[:]...)  //tdgraph:allow hotalloc spill promotion: amortized one-time growth, not steady state
	a.free = append(a.free, h.loc-1)
	h.loc = locSpilled | lh
	a.push(h, l, -1, u, w)
}

// delete removes the neighbour u of v, reporting whether it existed.
func (a *adjacency) delete(v, u VertexID) bool {
	h := &a.hdr[v]
	if h.loc&locSpilled != 0 {
		return a.remove(h, a.logs.at(h.loc&^locSpilled), u)
	}
	if h.loc == 0 {
		return false
	}
	b := a.blocks.at(h.loc - 1)
	i := slices.Index(b.nbr[:h.deg], u)
	if i < 0 {
		return false
	}
	h.deg--
	b.nbr[i], b.wgt[i] = b.nbr[h.deg], b.wgt[h.deg] // swap-remove keeps the live prefix dense
	if h.deg == 0 {
		a.free = append(a.free, h.loc-1)
		h.loc = 0
	}
	return true
}

// lookup returns a pointer to the weight of the neighbour u of v, or nil,
// and in the indexed tier find's table slot.
func (a *adjacency) lookup(v, u VertexID) (*float32, int) {
	switch h := a.hdr[v]; {
	case h.loc&locSpilled != 0:
		l := a.logs.at(h.loc &^ locSpilled)
		pos, slot := l.find(u)
		if pos < 0 {
			return nil, slot
		}
		_, wp := l.at(pos)
		return wp, slot
	case h.loc != 0:
		b := a.blocks.at(h.loc - 1)
		if i := slices.Index(b.nbr[:h.deg], u); i >= 0 {
			return &b.wgt[i], -1
		}
	}
	return nil, -1
}

// run returns run r of v's neighbours and weights in insertion order:
// the inline block's live prefix or the log's head, then chunk r-1's
// live prefix, and nothing past the last. The slices alias internal
// storage and are invalidated by any mutation of v's adjacency.
// Closure-free so the engines' hot loops stay allocation-free.
func (a *adjacency) run(v VertexID, r int) ([]VertexID, []float32) {
	switch h := a.hdr[v]; {
	case h.loc&locSpilled == 0:
		if h.loc != 0 && r == 0 {
			b := a.blocks.at(h.loc - 1)
			return b.nbr[:h.deg], b.wgt[:h.deg]
		}
	case r == 0:
		l := a.logs.at(h.loc &^ locSpilled)
		return l.nbr, l.wgt
	default:
		if lo := storeLinearMax + uint32(r-1)*storeChunkCap; h.deg > lo {
			c := a.logs.at(h.loc &^ locSpilled).hub.chunks[r-1]
			return c.nbr[:min(h.deg-lo, storeChunkCap)], c.wgt[:min(h.deg-lo, storeChunkCap)]
		}
	}
	return nil, nil
}

// forEach visits v's neighbours in insertion order. f must not mutate the
// adjacency.
func (a *adjacency) forEach(v VertexID, f func(u VertexID, w float32)) {
	for r := 0; ; r++ {
		ns, ws := a.run(v, r)
		if len(ns) == 0 {
			return
		}
		for i, u := range ns {
			f(u, ws[i])
		}
	}
}

// edgeLog is a spilled vertex's adjacency, one slot of the log pool: the
// head arrays (log positions below storeLinearMax in insertion order)
// and, indexed only, a hub record and a linear-probing table of log
// position + 1 (0 empty, indexTomb deleted), keys read through the log;
// deletes leave tombstones, rebuilt away when they pile up. Every lookup
// reads the table, so it is kept here: behind the hub record it cost the
// native engine's churn replay 12% (EXPERIMENTS.md `storechunks`).
//
// The table's width follows from len(index) alone: up to
// indexNarrowSlots slots it holds one word per slot, since the 3/4 load
// cap keeps position + 1 at most 49,152, clear of the narrow tombstone
// 0xFFFF; a larger table holds each slot as two words, low half first.
// Every access goes through slot and setSlot.
type edgeLog struct {
	nbr   []VertexID // head
	wgt   []float32  // parallel to nbr
	index []uint16   // nil in the linear tier
	hub   *hubRecord // nil in the linear tier
}

// hubRecord is what else only an indexed log owns: the chunks holding log
// position storeLinearMax + i at chunks[i/storeChunkCap], and the
// table's tombstone count.
type hubRecord struct {
	chunks []*edgeChunk
	tombs  int
}

// edgeChunk holds storeChunkCap consecutive log positions of a hub.
type edgeChunk struct {
	nbr [storeChunkCap]VertexID
	wgt [storeChunkCap]float32
}

const indexTomb = ^uint32(0)

// indexNarrowSlots is the largest table held one word per slot.
const indexNarrowSlots = 1 << 16

// slotHash is Fibonacci hashing over the table size (a power of two).
func slotHash(u VertexID, mask uint32) uint32 {
	return (u * 2654435769) & mask
}

// slots returns the table's slot count.
func (l *edgeLog) slots() int {
	if len(l.index) > indexNarrowSlots {
		return len(l.index) / 2
	}
	return len(l.index)
}

// slot returns table slot i: position + 1, 0 or indexTomb.
func (l *edgeLog) slot(i uint32) uint32 {
	if len(l.index) > indexNarrowSlots {
		return uint32(l.index[2*i]) | uint32(l.index[2*i+1])<<16
	}
	if p := l.index[i]; p != ^uint16(0) {
		return uint32(p)
	}
	return indexTomb
}

// setSlot stores p in table slot i; a narrow slot keeps p's low word,
// which turns indexTomb into the narrow tombstone.
func (l *edgeLog) setSlot(i, p uint32) {
	if len(l.index) > indexNarrowSlots {
		l.index[2*i], l.index[2*i+1] = uint16(p), uint16(p>>16)
		return
	}
	l.index[i] = uint16(p)
}

// at returns the neighbour and weight slots of log position p.
func (l *edgeLog) at(p int) (*VertexID, *float32) {
	if p < storeLinearMax {
		return &l.nbr[p], &l.wgt[p]
	}
	q := uint(p - storeLinearMax)
	c := l.hub.chunks[q/storeChunkCap]
	return &c.nbr[q%storeChunkCap], &c.wgt[q%storeChunkCap]
}

// find returns u's log position, or -1. In the indexed tier slot is the
// table slot holding u or, if u is absent, the first reusable slot on its
// probe chain; it is -1 in the linear tier.
func (l *edgeLog) find(u VertexID) (pos, slot int) {
	if l.hub == nil {
		return slices.Index(l.nbr, u), -1
	}
	mask := uint32(l.slots() - 1)
	slot = -1
	for i := slotHash(u, mask); ; i = (i + 1) & mask {
		switch p := l.slot(i); {
		case p == 0 || p == indexTomb:
			if slot < 0 {
				slot = int(i)
			}
			if p == 0 {
				return -1, slot
			}
		default:
			if n, _ := l.at(int(p - 1)); *n == u {
				return int(p - 1), int(i)
			}
		}
	}
}

// freeSlot is find's slot for a key known to be absent, found without
// reading a key: the first empty or tombstone slot on u's probe chain.
func (l *edgeLog) freeSlot(u VertexID) int {
	if l.hub == nil {
		return -1
	}
	mask := uint32(l.slots() - 1)
	i := slotHash(u, mask)
	for p := l.slot(i); p != 0 && p != indexTomb; p = l.slot(i) {
		i = (i + 1) & mask
	}
	return int(i)
}

// push appends u at log position h.deg — in the head, or in a chunk,
// taking the hub record and chunks as first needed — filed under table
// slot slot, rebuilding the table once keys and tombstones pass 3/4.
func (a *adjacency) push(h *vertexHeader, l *edgeLog, slot int, u VertexID, w float32) {
	n := h.deg
	h.deg++
	if n < storeLinearMax {
		l.nbr = append(l.nbr, u)
		l.wgt = append(l.wgt, w)
	} else {
		if l.hub == nil {
			l.hub = a.hubs.get()
		}
		q := n - storeLinearMax
		if int(q/storeChunkCap) == len(l.hub.chunks) {
			l.hub.chunks = append(l.hub.chunks, a.chunks.get())
		}
		c := l.hub.chunks[q/storeChunkCap]
		c.nbr[q%storeChunkCap], c.wgt[q%storeChunkCap] = u, w
	}
	if hub := l.hub; hub != nil {
		if slot >= 0 { // -1 only as the log takes its hub record
			if l.slot(uint32(slot)) == indexTomb {
				hub.tombs-- // re-using a tombstone shrinks the probe chain debt
			}
			l.setSlot(uint32(slot), n+1)
		}
		if (int(h.deg)+hub.tombs)*4 >= l.slots()*3 {
			a.reindex(l, h.deg)
		}
	}
}

// remove deletes u from v's log, reporting whether it was present.
func (a *adjacency) remove(h *vertexHeader, l *edgeLog, u VertexID) bool {
	pos, slot := l.find(u)
	if pos < 0 {
		return false
	}
	hub := l.hub
	if slot >= 0 {
		l.setSlot(uint32(slot), indexTomb)
		hub.tombs++
	}
	h.deg--
	last := int(h.deg)
	if pos != last {
		mn, mw := l.at(last)
		pn, pw := l.at(pos)
		*pn, *pw = *mn, *mw
		if hub != nil {
			// Re-point the moved key's slot: the one on its probe chain
			// that holds position last, found without reading a key.
			mask := uint32(l.slots() - 1)
			i := slotHash(*mn, mask)
			for l.slot(i) != uint32(last+1) {
				i = (i + 1) & mask
			}
			l.setSlot(i, uint32(pos+1))
		}
	}
	if last < storeLinearMax {
		l.nbr, l.wgt = l.nbr[:last], l.wgt[:last]
	}
	if hub != nil && last <= storeLinearMax/2 {
		// Back to the linear tier. Waiting for half the threshold keeps
		// a vertex hovering at it from rebuilding a table per crossing.
		a.dropHub(l)
	}
	return true
}

// dropHub drops l's table and frees its hub record and chunks: the log
// is back in the linear range, every edge it holds in the head.
func (a *adjacency) dropHub(l *edgeLog) {
	hub := l.hub
	a.chunks.put(hub.chunks...)
	hub.chunks, l.index, hub.tombs = hub.chunks[:0], nil, 0
	a.hubs.put(hub)
	l.hub = nil
}

// reindex rebuilds the table for the log's n live keys without
// tombstones, doubling it when live keys alone pass 3/4 occupancy, never
// shrinking it, and clearing it in place when the size holds. A log back
// in the linear range drops its hub record instead.
func (a *adjacency) reindex(l *edgeLog, n uint32) {
	if n <= storeLinearMax {
		a.dropHub(l)
		return
	}
	l.hub.tombs = 0
	size := max(l.slots(), 8)
	for int(n)*4 >= size*3 {
		size *= 2
	}
	if size == l.slots() {
		clear(l.index)
	} else {
		words := size
		if size > indexNarrowSlots {
			words *= 2
		}
		l.index = make([]uint16, words) //tdgraph:allow hotalloc doubling rehash: amortized O(1) per insert; a same-size rebuild reuses the table
	}
	mask := uint32(size - 1)
	for p := 0; p < int(n); p++ {
		u, _ := l.at(p)
		i := slotHash(*u, mask)
		for l.slot(i) != 0 {
			i = (i + 1) & mask
		}
		l.setSlot(i, uint32(p+1))
	}
}

// NewStore returns an empty store over numVertices isolated vertices.
func NewStore(numVertices int) *Store {
	st := &Store{}
	st.growTo(numVertices)
	return st
}

// NewStoreFromEdges builds the initial graph from an edge list over
// numVertices vertices or, if an edge names a larger ID, enough to cover
// it. The result is the store an AddEdge per edge in order would leave —
// a repeated edge keeps its first position and its last weight, as in
// the test-side Builder oracle — built a direction at a time: the
// edges are grouped into rows by source (then by destination) with a
// stable counting sort, and each row goes straight into its final tier.
func NewStoreFromEdges(numVertices int, edges []Edge) *Store {
	n := numVertices
	for _, e := range edges {
		n = max(n, int(e.Src)+1, int(e.Dst)+1)
	}
	st := NewStore(n)
	if len(edges) == 0 {
		return st
	}
	ld := rowLoader{mark: st.touch}
	off := make([]uint32, n+1)
	nbr, wgt := make([]VertexID, len(edges)), make([]float32, len(edges))
	for _, in := range [2]bool{false, true} {
		a := &st.out
		if in {
			a = &st.in
		}
		groupRows(edges, in, off, nbr, wgt)
		for v := range n {
			if d := ld.load(a, VertexID(v), nbr[off[v]:off[v+1]], wgt[off[v]:off[v+1]]); !in {
				st.numEdges += d
			}
		}
	}
	return st
}

// NewStoreFromSnapshot loads an immutable snapshot into a fresh store
// (the checkpoint-restore path of the native engine) straight from its
// CSR rows and CSC mirror, building the mirror first if it has none. The
// result is the store an AddEdge per CSR edge in row order would leave,
// given the mirror buildCSC makes — the only one a snapshot gets.
func NewStoreFromSnapshot(s *Snapshot) *Store {
	if s.InOffsets == nil {
		withCSC := *s
		buildCSC(&withCSC)
		s = &withCSC
	}
	st := NewStore(s.NumVertices)
	ld := rowLoader{mark: st.touch}
	for v := range VertexID(s.NumVertices) {
		st.numEdges += ld.load(&st.out, v, s.OutNeighbors(v), s.OutWeights(v))
		ld.load(&st.in, v, s.InNeighborsOf(v), s.InWeightsOf(v))
	}
	return st
}

// groupRows lays edges out as one row per vertex, row v being
// nbr[off[v]:off[v+1]] with parallel weights: keyed by source, holding
// destinations, or with in the other way round, each row in input order
// (a stable counting sort). off has one word per vertex and one more,
// nbr and wgt one per edge.
func groupRows(edges []Edge, in bool, off []uint32, nbr []VertexID, wgt []float32) {
	clear(off)
	for _, e := range edges {
		if in {
			e.Src = e.Dst
		}
		off[e.Src+1]++
	}
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
	// Filling row v from off[v] leaves it at row v+1's start; shifting
	// the words back one restores the starts.
	for _, e := range edges {
		if in {
			e.Src, e.Dst = e.Dst, e.Src
		}
		i := off[e.Src]
		off[e.Src]++
		nbr[i], wgt[i] = e.Dst, e.Weight
	}
	copy(off[1:], off)
	off[0] = 0
}

// rowLoader places whole rows into an empty direction of a new store.
type rowLoader struct {
	// mark flags the neighbours of the row being loaded. It is the
	// store's touch array, all zero until the first Apply and left so.
	mark []uint8
	// A row with repeats is rebuilt here, pos mapping a neighbour to its
	// position.
	dupN []VertexID
	dupW []float32
	pos  map[VertexID]int
}

// load gives the empty vertex v of a the row ns, ws, whose neighbours are
// in insertion order, leaving what an insert per edge would: a repeated
// neighbour keeps its first position and its last weight. It returns v's
// degree.
func (ld *rowLoader) load(a *adjacency, v VertexID, ns []VertexID, ws []float32) int {
	repeats := false
	for _, u := range ns {
		repeats = repeats || ld.mark[u] != 0
		ld.mark[u] = 1
	}
	for _, u := range ns {
		ld.mark[u] = 0
	}
	if repeats {
		ns, ws = ld.dedup(ns, ws)
	}
	a.place(v, ns, ws)
	return len(ns)
}

// dedup returns ns, ws with every repeated neighbour's later entries
// folded into its first: the first position, the last weight.
func (ld *rowLoader) dedup(ns []VertexID, ws []float32) ([]VertexID, []float32) {
	if ld.pos == nil {
		ld.pos = map[VertexID]int{}
	}
	clear(ld.pos)
	ld.dupN, ld.dupW = ld.dupN[:0], ld.dupW[:0]
	for i, u := range ns {
		if p, ok := ld.pos[u]; ok {
			ld.dupW[p] = ws[i]
			continue
		}
		ld.pos[u] = len(ld.dupN)
		ld.dupN, ld.dupW = append(ld.dupN, u), append(ld.dupW, ws[i])
	}
	return ld.dupN, ld.dupW
}

// place gives the empty vertex v the distinct neighbours ns and weights
// ws in the tier their number puts it in, with the head capacity and
// table size inserting them one by one would have reached: an inline
// block up to storeInlineCap; past it a log whose head grew 8 → 16 → 32
// → 64 by append; past storeLinearMax a hub record, its chunks and the
// table reindex sizes for them.
func (a *adjacency) place(v VertexID, ns []VertexID, ws []float32) {
	h := &a.hdr[v]
	h.deg = uint32(len(ns))
	switch {
	case len(ns) == 0:
	case len(ns) <= storeInlineCap:
		h.loc = a.blocks.alloc() + 1
		b := a.blocks.at(h.loc - 1)
		copy(b.nbr[:], ns)
		copy(b.wgt[:], ws)
	default:
		lh := a.logs.alloc()
		h.loc = locSpilled | lh
		l := a.logs.at(lh)
		head := min(len(ns), storeLinearMax)
		c := 2 * storeInlineCap
		for c < head {
			c *= 2
		}
		l.nbr = append(make([]VertexID, 0, c), ns[:head]...)
		l.wgt = append(make([]float32, 0, c), ws[:head]...)
		if len(ns) == head {
			return
		}
		l.hub = a.hubs.get()
		for lo := head; lo < len(ns); lo += storeChunkCap {
			ch := a.chunks.get()
			copy(ch.nbr[:], ns[lo:])
			copy(ch.wgt[:], ws[lo:])
			l.hub.chunks = append(l.hub.chunks, ch)
		}
		a.reindex(l, h.deg)
	}
}

func (st *Store) growTo(n int) {
	st.out.hdr, st.in.hdr = extend(st.out.hdr, n), extend(st.in.hdr, n)
	st.touch = extend(st.touch, n)
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
	wp, _ := st.out.lookup(src, dst)
	return wp != nil
}

// EdgeWeight returns the current weight of src→dst, if present.
func (st *Store) EdgeWeight(src, dst VertexID) (float32, bool) {
	if int(src) < st.numVertices {
		if wp, _ := st.out.lookup(src, dst); wp != nil {
			return *wp, true
		}
	}
	return 0, false
}

// AddEdge inserts src→dst with the given weight, overwriting the weight
// if the edge exists. It reports whether a new edge was created. Cost is
// O(1) expected (a scan of at most storeLinearMax neighbours, or one hash
// probe) — never O(|E|).
func (st *Store) AddEdge(src, dst VertexID, w float32) bool {
	if int(src) >= st.numVertices || int(dst) >= st.numVertices {
		panic(fmt.Sprintf("graph: Store.AddEdge(%d,%d) out of range (V=%d)", src, dst, st.numVertices))
	}
	if _, existed := st.out.insert(src, dst, w); existed {
		st.in.insert(dst, src, w) // reweights the mirror
		return false
	}
	st.in.add(dst, src, w, -1)
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

// OutEdges returns run r of src's out-neighbours and their weights in
// insertion order: run 0 is the inline block or the log's head, runs 1,
// 2, … a hub's chunks, and a run past the last is empty, so the runs in
// order are the whole row. The slices alias store internals — do not
// mutate them, and do not hold them across a store mutation. This is the
// allocation-free iteration primitive the native engine's hot loops use:
//
//	for r, left := 0, st.OutDegree(v); left > 0; r++ {
//		ns, ws := st.OutEdges(v, r)
//		left -= len(ns)
//		…
//	}
func (st *Store) OutEdges(src VertexID, r int) ([]VertexID, []float32) {
	return st.out.run(src, r)
}

// InEdges returns run r of dst's in-neighbours and their weights, with
// the same runs and aliasing contract as OutEdges.
func (st *Store) InEdges(dst VertexID, r int) ([]VertexID, []float32) {
	return st.in.run(dst, r)
}

// Apply applies a batch of updates in order and returns what changed
// (the ApplyResult contract, which the test-side Builder oracle also
// implements): a re-add with a different weight is recorded as
// delete(old)+add(new), Affected lists distinct destination vertices of
// effective updates in first-touch order.
//
// The returned result's slices are owned by the store and reused by the
// next Apply — callers that retain them across batches must copy. This
// aliasing is what makes the steady-state ingest path allocation-free.
func (st *Store) Apply(batch []Update) ApplyResult {
	res := &st.res
	for _, v := range res.Affected { // the last batch's marks, and only those
		st.touch[v] = 0
	}
	res.Added, res.Deleted, res.WeightChanged, res.Skipped = 0, 0, 0, 0
	res.Affected = res.Affected[:0]
	res.AddedEdges = res.AddedEdges[:0]
	res.DeletedEdges = res.DeletedEdges[:0]
	//tdgraph:allow hotalloc non-escaping local closure: only invoked below in this frame, so it stays on the stack (TestSessionSteadyStateZeroAllocs pins 0 allocs/batch)
	affect := func(v VertexID, mark uint8) {
		t := &st.touch[v]
		if *t == 0 {
			res.Affected = append(res.Affected, v)
		}
		*t = max(*t, mark)
	}
	for _, u := range batch {
		if u.Delete {
			if st.DeleteEdge(u.Edge.Src, u.Edge.Dst) {
				res.Deleted++
				res.DeletedEdges = append(res.DeletedEdges, u.Edge)
				affect(u.Edge.Dst, touchUndone)
			} else {
				res.Skipped++
			}
			continue
		}
		st.ensure(u.Edge.Src)
		st.ensure(u.Edge.Dst)
		oldW, existed := st.out.insert(u.Edge.Src, u.Edge.Dst, u.Edge.Weight)
		switch {
		case !existed:
			st.in.add(u.Edge.Dst, u.Edge.Src, u.Edge.Weight, -1)
			st.numEdges++
			res.Added++
			affect(u.Edge.Dst, touchAffected)
		case oldW == u.Edge.Weight:
			res.Skipped++
			continue
		default:
			st.in.insert(u.Edge.Dst, u.Edge.Src, u.Edge.Weight)
			res.WeightChanged++
			res.DeletedEdges = append(res.DeletedEdges,
				Edge{Src: u.Edge.Src, Dst: u.Edge.Dst, Weight: oldW})
			affect(u.Edge.Dst, touchUndone)
		}
		res.AddedEdges = append(res.AddedEdges, u.Edge)
	}
	// Only a later delete or re-weight of the same edge can have made an
	// add stale, so only adds into a vertex one of those hit are looked up.
	if res.Deleted+res.WeightChanged > 0 {
		live := res.AddedEdges[:0]
		for _, e := range res.AddedEdges {
			if st.touch[e.Dst] == touchAffected {
				live = append(live, e)
			} else if wp, _ := st.out.lookup(e.Src, e.Dst); wp != nil && *wp == e.Weight {
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
