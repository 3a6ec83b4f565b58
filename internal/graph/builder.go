package graph

import (
	"fmt"
	"sort"
)

// Builder is the mutable adjacency structure that graph updates are applied
// to. The software layer (§3.2.1) applies each arriving batch here and then
// materialises an immutable Snapshot for the engines to process.
//
// Neighbour lists are kept sorted by destination ID so that edge insertion
// and deletion are O(log d + d) and snapshots come out with sorted CSR rows.
type Builder struct {
	numVertices int
	adj         []vertexAdj
	numEdges    int
}

type vertexAdj struct {
	dsts    []VertexID
	weights []float32
}

// NewBuilder returns a builder over numVertices isolated vertices.
func NewBuilder(numVertices int) *Builder {
	return &Builder{
		numVertices: numVertices,
		adj:         make([]vertexAdj, numVertices),
	}
}

// NewBuilderFromEdges builds the initial graph from an edge list, growing
// the vertex set to cover every referenced ID. Duplicate edges keep the
// last weight seen.
func NewBuilderFromEdges(numVertices int, edges []Edge) *Builder {
	b := NewBuilder(numVertices)
	for _, e := range edges {
		b.ensure(e.Src)
		b.ensure(e.Dst)
		b.AddEdge(e.Src, e.Dst, e.Weight)
	}
	return b
}

func (b *Builder) ensure(v VertexID) {
	for b.numVertices <= int(v) {
		b.adj = append(b.adj, vertexAdj{})
		b.numVertices++
	}
}

// NumVertices returns the current vertex count.
func (b *Builder) NumVertices() int { return b.numVertices }

// NumEdges returns the current directed edge count.
func (b *Builder) NumEdges() int { return b.numEdges }

// AddEdge inserts src→dst with the given weight. If the edge already
// exists its weight is overwritten and the edge count is unchanged.
// It reports whether a new edge was created.
func (b *Builder) AddEdge(src, dst VertexID, w float32) bool {
	if int(src) >= b.numVertices || int(dst) >= b.numVertices {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range (V=%d)", src, dst, b.numVertices))
	}
	a := &b.adj[src]
	i := sort.Search(len(a.dsts), func(i int) bool { return a.dsts[i] >= dst })
	if i < len(a.dsts) && a.dsts[i] == dst {
		a.weights[i] = w
		return false
	}
	a.dsts = append(a.dsts, 0)
	copy(a.dsts[i+1:], a.dsts[i:])
	a.dsts[i] = dst
	a.weights = append(a.weights, 0)
	copy(a.weights[i+1:], a.weights[i:])
	a.weights[i] = w
	b.numEdges++
	return true
}

// DeleteEdge removes src→dst and reports whether it existed.
func (b *Builder) DeleteEdge(src, dst VertexID) bool {
	if int(src) >= b.numVertices || int(dst) >= b.numVertices {
		return false
	}
	a := &b.adj[src]
	i := sort.Search(len(a.dsts), func(i int) bool { return a.dsts[i] >= dst })
	if i >= len(a.dsts) || a.dsts[i] != dst {
		return false
	}
	a.dsts = append(a.dsts[:i], a.dsts[i+1:]...)
	a.weights = append(a.weights[:i], a.weights[i+1:]...)
	b.numEdges--
	return true
}

// edgeWeight returns the current weight of src→dst, if present.
func (b *Builder) edgeWeight(src, dst VertexID) (float32, bool) {
	if int(src) >= b.numVertices {
		return 0, false
	}
	a := &b.adj[src]
	i := sort.Search(len(a.dsts), func(i int) bool { return a.dsts[i] >= dst })
	if i < len(a.dsts) && a.dsts[i] == dst {
		return a.weights[i], true
	}
	return 0, false
}

// HasEdge reports whether src→dst currently exists.
func (b *Builder) HasEdge(src, dst VertexID) bool {
	if int(src) >= b.numVertices {
		return false
	}
	a := &b.adj[src]
	i := sort.Search(len(a.dsts), func(i int) bool { return a.dsts[i] >= dst })
	return i < len(a.dsts) && a.dsts[i] == dst
}

// OutDegree returns the current out-degree of v.
func (b *Builder) OutDegree(v VertexID) int { return len(b.adj[v].dsts) }

// Update is one streaming graph update: an edge addition or deletion.
type Update struct {
	Edge   Edge
	Delete bool
}

// ApplyResult reports what a batch application actually changed and which
// vertices the engines must treat as affected (§2.1): destination vertices
// of added and deleted edges. An addition of an edge that already exists
// with a different weight is a weight update: it is recorded as a deletion
// of the old edge plus an addition of the new one, so the incremental
// repair sees the change.
type ApplyResult struct {
	Added, Deleted int
	WeightChanged  int
	Skipped        int // adds of identical edges / deletes of missing edges
	// Affected lists the distinct destination vertices of effective
	// updates, in first-touch order.
	Affected []VertexID
	// AddedEdges / DeletedEdges are the effective (non-skipped) updates,
	// needed by the incremental engines' per-edge repair steps. Every
	// AddedEdges entry is present in the post-batch graph at the listed
	// weight — an add that a later update of the same batch deleted or
	// re-weighted is dropped, or the monotonic repair would relax along
	// an edge that no longer exists. DeletedEdges may keep entries a
	// later add restored: those only over-tag.
	AddedEdges   []Edge
	DeletedEdges []Edge
}

// Apply applies a batch of updates in order and returns what changed.
func (b *Builder) Apply(batch []Update) ApplyResult {
	var res ApplyResult
	seen := make(map[VertexID]struct{})
	affect := func(v VertexID) {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			res.Affected = append(res.Affected, v)
		}
	}
	for _, u := range batch {
		if u.Delete {
			if b.DeleteEdge(u.Edge.Src, u.Edge.Dst) {
				res.Deleted++
				res.DeletedEdges = append(res.DeletedEdges, u.Edge)
				affect(u.Edge.Dst)
			} else {
				res.Skipped++
			}
		} else {
			b.ensure(u.Edge.Src)
			b.ensure(u.Edge.Dst)
			if oldW, exists := b.edgeWeight(u.Edge.Src, u.Edge.Dst); exists {
				if oldW == u.Edge.Weight {
					res.Skipped++
					continue
				}
				// Weight update: delete(old) + add(new) for the repair.
				b.AddEdge(u.Edge.Src, u.Edge.Dst, u.Edge.Weight)
				res.WeightChanged++
				res.DeletedEdges = append(res.DeletedEdges,
					Edge{Src: u.Edge.Src, Dst: u.Edge.Dst, Weight: oldW})
				res.AddedEdges = append(res.AddedEdges, u.Edge)
				affect(u.Edge.Dst)
				continue
			}
			if b.AddEdge(u.Edge.Src, u.Edge.Dst, u.Edge.Weight) {
				res.Added++
				res.AddedEdges = append(res.AddedEdges, u.Edge)
				affect(u.Edge.Dst)
			} else {
				res.Skipped++
			}
		}
	}
	// Only a delete or re-weight can have made an earlier add stale.
	if res.Deleted+res.WeightChanged > 0 {
		live := res.AddedEdges[:0]
		for _, e := range res.AddedEdges {
			if w, ok := b.edgeWeight(e.Src, e.Dst); ok && w == e.Weight {
				live = append(live, e)
			}
		}
		res.AddedEdges = live
	}
	return res
}

// Snapshot materialises the current graph as an immutable CSR (+CSC)
// snapshot.
func (b *Builder) Snapshot() *Snapshot {
	return b.snapshot(true)
}

// SnapshotWithoutCSC materialises only the CSR side; engines that never
// walk in-edges (pure accumulative additions) can use it to halve the
// footprint.
func (b *Builder) SnapshotWithoutCSC() *Snapshot {
	return b.snapshot(false)
}

func (b *Builder) snapshot(withCSC bool) *Snapshot {
	s := &Snapshot{
		NumVertices: b.numVertices,
		Offsets:     make([]uint64, b.numVertices+1),
		Neighbors:   make([]VertexID, 0, b.numEdges),
		Weights:     make([]float32, 0, b.numEdges),
	}
	for v := 0; v < b.numVertices; v++ {
		s.Offsets[v] = uint64(len(s.Neighbors))
		s.Neighbors = append(s.Neighbors, b.adj[v].dsts...)
		s.Weights = append(s.Weights, b.adj[v].weights...)
	}
	s.Offsets[b.numVertices] = uint64(len(s.Neighbors))
	if withCSC {
		buildCSC(s)
	}
	return s
}

// buildCSC fills the snapshot's incoming-edge mirror by counting sort over
// destination IDs, preserving per-destination source order (sorted, since
// sources are visited in increasing order).
func buildCSC(s *Snapshot) {
	n := s.NumVertices
	counts := make([]uint64, n+1)
	for _, d := range s.Neighbors {
		counts[d+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	s.InOffsets = make([]uint64, n+1)
	copy(s.InOffsets, counts)
	s.InNeighbors = make([]VertexID, len(s.Neighbors))
	s.InWeights = make([]float32, len(s.Neighbors))
	cursor := make([]uint64, n)
	for v := 0; v < n; v++ {
		base := s.Offsets[v]
		ns := s.OutNeighbors(VertexID(v))
		for i, d := range ns {
			pos := s.InOffsets[d] + cursor[d]
			cursor[d]++
			s.InNeighbors[pos] = VertexID(v)
			s.InWeights[pos] = s.Weights[base+uint64(i)]
		}
	}
}
