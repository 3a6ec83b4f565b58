package graph

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
