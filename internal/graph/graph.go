// Package graph provides the streaming-graph substrate: immutable CSR/CSC
// snapshots, the mutable Store that applies batched edge updates, dataset
// statistics, chunk partitioning for many-core processing, and a SNAP
// edge-list loader. Everything downstream (software engines, the TDGraph
// model, the accelerator baselines) operates on Snapshot.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. 32 bits match the paper's 4-byte vertex
// state/ID elements, which is what makes cache-line utilisation matter.
type VertexID = uint32

// Edge is a weighted directed edge.
type Edge struct {
	Src, Dst VertexID
	Weight   float32
}

// Snapshot is an immutable graph snapshot in CSR form (out-edges) with an
// optional CSC mirror (in-edges) required by the monotonic deletion path
// and by accumulative contribution cancelling.
//
// Layout mirrors the paper's in-memory arrays:
//
//	Offsets   — Offset_Array   (len = V+1)
//	Neighbors — Neighbor_Array (len = E)
//	Weights   — parallel to Neighbors
type Snapshot struct {
	NumVertices int
	Offsets     []uint64
	Neighbors   []VertexID
	Weights     []float32

	// CSC mirror (incoming edges). Store.Seal and ReadBinary always
	// build it; ReadBinaryCSR and a snapshot assembled by hand may leave
	// it nil.
	InOffsets   []uint64
	InNeighbors []VertexID
	InWeights   []float32
}

// NumEdges returns the directed edge count.
func (s *Snapshot) NumEdges() int { return len(s.Neighbors) }

// OutDegree returns the out-degree of v.
func (s *Snapshot) OutDegree(v VertexID) int {
	return int(s.Offsets[v+1] - s.Offsets[v])
}

// InDegree returns the in-degree of v (requires the CSC mirror).
func (s *Snapshot) InDegree(v VertexID) int {
	return int(s.InOffsets[v+1] - s.InOffsets[v])
}

// OutNeighbors returns the slice of v's outgoing neighbour IDs. The slice
// aliases the snapshot and must not be mutated.
func (s *Snapshot) OutNeighbors(v VertexID) []VertexID {
	return s.Neighbors[s.Offsets[v]:s.Offsets[v+1]]
}

// OutWeights returns the weights parallel to OutNeighbors(v).
func (s *Snapshot) OutWeights(v VertexID) []float32 {
	return s.Weights[s.Offsets[v]:s.Offsets[v+1]]
}

// InNeighborsOf returns the incoming neighbour IDs of v.
func (s *Snapshot) InNeighborsOf(v VertexID) []VertexID {
	return s.InNeighbors[s.InOffsets[v]:s.InOffsets[v+1]]
}

// InWeightsOf returns the weights parallel to InNeighborsOf(v).
func (s *Snapshot) InWeightsOf(v VertexID) []float32 {
	return s.InWeights[s.InOffsets[v]:s.InOffsets[v+1]]
}

// HasEdge reports whether the edge src→dst exists, by binary search over
// the sorted adjacency list (Seal and ReadBinary emit sorted rows).
func (s *Snapshot) HasEdge(src, dst VertexID) bool {
	ns := s.OutNeighbors(src)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= dst })
	return i < len(ns) && ns[i] == dst
}

// EdgeWeight returns the weight of src→dst and whether the edge exists.
func (s *Snapshot) EdgeWeight(src, dst VertexID) (float32, bool) {
	ns := s.OutNeighbors(src)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= dst })
	if i < len(ns) && ns[i] == dst {
		return s.OutWeights(src)[i], true
	}
	return 0, false
}

// Stats summarises a snapshot the way the paper's Table 2 does.
type Stats struct {
	Vertices  int
	Edges     int
	Diameter  int // approximate (double-sweep BFS lower bound)
	AvgDegree float64
	MaxDegree int
}

// ComputeStats derives Table 2-style statistics. Diameter uses the
// double-sweep BFS heuristic (exact diameter is infeasible for large
// graphs and the paper's d column is itself an estimate for such sizes).
func (s *Snapshot) ComputeStats() Stats {
	st := Stats{Vertices: s.NumVertices, Edges: s.NumEdges()}
	if s.NumVertices == 0 {
		return st
	}
	st.AvgDegree = float64(st.Edges) / float64(st.Vertices)
	for v := 0; v < s.NumVertices; v++ {
		if d := s.OutDegree(VertexID(v)); d > st.MaxDegree {
			st.MaxDegree = d
		}
	}
	st.Diameter = s.approxDiameter()
	return st
}

// approxDiameter runs BFS from the max-degree vertex, then BFS again from
// the farthest vertex found, treating edges as undirected, and returns the
// larger eccentricity observed.
func (s *Snapshot) approxDiameter() int {
	if s.NumVertices == 0 {
		return 0
	}
	start := VertexID(0)
	best := -1
	for v := 0; v < s.NumVertices; v++ {
		if d := s.OutDegree(VertexID(v)); d > best {
			best = d
			start = VertexID(v)
		}
	}
	far, d1 := s.bfsEccentricity(start)
	_, d2 := s.bfsEccentricity(far)
	if d2 > d1 {
		return d2
	}
	return d1
}

func (s *Snapshot) bfsEccentricity(src VertexID) (far VertexID, ecc int) {
	dist := make([]int32, s.NumVertices)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []VertexID{src}
	far = src
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		visit := func(n VertexID) {
			if dist[n] < 0 {
				dist[n] = dist[v] + 1
				if int(dist[n]) > ecc {
					ecc = int(dist[n])
					far = n
				}
				queue = append(queue, n)
			}
		}
		for _, n := range s.OutNeighbors(v) {
			visit(n)
		}
		if s.InOffsets != nil {
			for _, n := range s.InNeighborsOf(v) {
				visit(n)
			}
		}
	}
	return far, ecc
}

// Validate checks structural invariants of the snapshot: monotone offsets,
// in-range neighbour IDs, sorted adjacency lists, and CSR/CSC edge-count
// agreement. It returns a descriptive error on the first violation.
func (s *Snapshot) Validate() error {
	if len(s.Offsets) != s.NumVertices+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(s.Offsets), s.NumVertices+1)
	}
	if s.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", s.Offsets[0])
	}
	if s.Offsets[s.NumVertices] != uint64(len(s.Neighbors)) {
		return fmt.Errorf("graph: offsets end %d, want %d", s.Offsets[s.NumVertices], len(s.Neighbors))
	}
	if len(s.Weights) != len(s.Neighbors) {
		return fmt.Errorf("graph: weights length %d, want %d", len(s.Weights), len(s.Neighbors))
	}
	for v := 0; v < s.NumVertices; v++ {
		if s.Offsets[v] > s.Offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		ns := s.OutNeighbors(VertexID(v))
		for i, n := range ns {
			if int(n) >= s.NumVertices {
				return fmt.Errorf("graph: neighbor %d of vertex %d out of range", n, v)
			}
			if i > 0 && ns[i-1] > n {
				return fmt.Errorf("graph: adjacency of vertex %d not sorted", v)
			}
		}
	}
	if s.InOffsets != nil {
		if len(s.InOffsets) != s.NumVertices+1 {
			return fmt.Errorf("graph: in-offsets length %d, want %d", len(s.InOffsets), s.NumVertices+1)
		}
		if s.InOffsets[s.NumVertices] != uint64(len(s.InNeighbors)) {
			return fmt.Errorf("graph: in-offsets end %d, want %d", s.InOffsets[s.NumVertices], len(s.InNeighbors))
		}
		if len(s.InNeighbors) != len(s.Neighbors) {
			return fmt.Errorf("graph: CSC edge count %d != CSR edge count %d", len(s.InNeighbors), len(s.Neighbors))
		}
	}
	return nil
}

// EdgeList flattens the snapshot back into an edge slice (src-major,
// dst-sorted). Mainly used by tests and the mutation oracle.
func (s *Snapshot) EdgeList() []Edge {
	out := make([]Edge, 0, s.NumEdges())
	for v := 0; v < s.NumVertices; v++ {
		ns := s.OutNeighbors(VertexID(v))
		ws := s.OutWeights(VertexID(v))
		for i := range ns {
			out = append(out, Edge{Src: VertexID(v), Dst: ns[i], Weight: ws[i]})
		}
	}
	return out
}

// Chunk is a contiguous vertex range [Start, End) assigned to one core,
// matching the paper's chunked dispatch (§3.2.3).
type Chunk struct {
	Start, End VertexID
}

// Len returns the number of vertices in the chunk.
func (c Chunk) Len() int { return int(c.End - c.Start) }

// Contains reports whether v falls inside the chunk.
func (c Chunk) Contains(v VertexID) bool { return v >= c.Start && v < c.End }

// PartitionByEdges splits the vertex range into n chunks with roughly equal
// edge counts (the software layer's load-balancing role in §3.2.1). It
// always returns exactly n chunks; trailing chunks may be empty for tiny
// graphs.
func PartitionByEdges(s *Snapshot, n int) []Chunk {
	if n <= 0 {
		n = 1
	}
	chunks := make([]Chunk, 0, n)
	totalEdges := uint64(s.NumEdges())
	target := totalEdges / uint64(n)
	if target == 0 {
		target = 1
	}
	start := VertexID(0)
	var acc uint64
	for v := 0; v < s.NumVertices && len(chunks) < n-1; v++ {
		acc += uint64(s.OutDegree(VertexID(v)))
		if acc >= target {
			chunks = append(chunks, Chunk{Start: start, End: VertexID(v + 1)})
			start = VertexID(v + 1)
			acc = 0
		}
	}
	chunks = append(chunks, Chunk{Start: start, End: VertexID(s.NumVertices)})
	for len(chunks) < n {
		chunks = append(chunks, Chunk{Start: VertexID(s.NumVertices), End: VertexID(s.NumVertices)})
	}
	return chunks
}
