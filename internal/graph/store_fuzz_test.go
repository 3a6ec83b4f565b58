package graph

import (
	"fmt"
	"testing"
)

// fuzzIDs is the fuzzed streams' ID space: past storeLinearMax plus a
// chunk, so a hub can reach the indexed tier and its second chunk, and
// small enough that a few hundred bytes get it there.
const fuzzIDs = storeLinearMax + storeChunkCap + 16

// fuzzMaxUpdates bounds one input: room for the seeds' full climb,
// descent and second climb, small enough for thousands of executions a
// second.
const fuzzMaxUpdates = 768

// Fuzz update encoding, three bytes per update: op, x, y. Bit 0 of op
// puts a hub (1 if bit 1 is set, else 0) at the source instead of x,
// bit 2 puts it at the destination instead of y, bit 3 makes a delete,
// bit 4 closes the batch after this update, bits 5–7 are the weight.
const (
	fuzzSrcHub = 1 << 0
	fuzzHub1   = 1 << 1
	fuzzDstHub = 1 << 2
	fuzzDelete = 1 << 3
	fuzzCut    = 1 << 4
)

// FuzzStoreMatchesBuilder decodes bytes into batches of updates over a
// small, hub-skewed ID space and holds the Store to the Builder: the
// ApplyResult of every batch (matchBuilder), then edge lists and
// checkpoint bytes (sameGraph).
// The seeds carry hub 0's out-edges and hub 1's in-edges inline →
// linear → indexed through two chunks, then hub 0's back down to degree
// 0, which empties every other vertex's in-edges and releases their
// inline blocks, or to degree 20, which leaves the indexed tier and
// releases its chunks, and then back up again on recycled blocks or
// chunks.
func FuzzStoreMatchesBuilder(f *testing.F) {
	var up, down, downTo20 []byte
	for i := 2; i < fuzzIDs; i++ {
		op := byte(fuzzSrcHub | i%8<<5)
		if i%16 == 0 {
			op |= fuzzCut
		}
		up = append(up, op, 0, byte(i), fuzzDstHub|fuzzHub1, byte(i), 0)
		down = append(down, op|fuzzDelete, 0, byte(i))
		if i >= 22 {
			downTo20 = append(downTo20, op|fuzzDelete, 0, byte(i))
		}
	}
	f.Add([]byte{})
	f.Add(up)
	f.Add(append(append([]byte{}, up...), down...))
	f.Add(append(append(append([]byte{}, up...), down...), up...))
	f.Add(append(append(append([]byte{}, up...), downTo20...), up...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*fuzzMaxUpdates {
			return // every batch re-checks the whole graph; keep inputs cheap
		}
		st, b := NewStore(2), NewBuilder(2)
		var ups []Update
		for i := 0; i+3 <= len(data); i += 3 {
			op, x, y := data[i], data[i+1], data[i+2]
			e := Edge{Src: VertexID(x % fuzzIDs), Dst: VertexID(y % fuzzIDs), Weight: float32(op >> 5)}
			hub := VertexID(op&fuzzHub1) >> 1
			if op&fuzzSrcHub != 0 {
				e.Src = hub
			}
			if op&fuzzDstHub != 0 {
				e.Dst = hub
			}
			ups = append(ups, Update{Edge: e, Delete: op&fuzzDelete != 0})
			if op&fuzzCut != 0 {
				matchBuilder(t, fmt.Sprintf("batch ending at byte %d", i), b, st, ups)
				ups = ups[:0]
			}
		}
		matchBuilder(t, "last batch", b, st, ups)
		sameGraph(t, "end of stream", b, st)
	})
}

// FuzzStoreFromEdges decodes bytes into an edge list over the same
// hub-skewed ID space — the first byte is numVertices, then three bytes
// an edge as above, the delete and cut bits ignored — and holds both
// bulk loaders to the AddEdge loop (sameAsInserts). The seeds carry hub
// 0's out-row and hub 1's in-row through every tier, with and without
// each edge repeated at another weight.
func FuzzStoreFromEdges(f *testing.F) {
	var up, twice []byte
	for i := 2; i < fuzzIDs; i++ {
		edge := []byte{byte(fuzzSrcHub | i%8<<5), 0, byte(i), fuzzDstHub | fuzzHub1, byte(i), 0}
		up = append(up, edge...)
		twice = append(twice, edge...)
		edge[0] ^= 1 << 5
		twice = append(twice, edge...)
	}
	f.Add([]byte{})
	f.Add([]byte{3})
	f.Add(append([]byte{2}, up...))
	f.Add(append([]byte{fuzzIDs}, twice...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1+3*fuzzMaxUpdates {
			return
		}
		var edges []Edge
		for i := 1; i+3 <= len(data); i += 3 {
			op, x, y := data[i], data[i+1], data[i+2]
			e := Edge{Src: VertexID(x % fuzzIDs), Dst: VertexID(y % fuzzIDs), Weight: float32(op >> 5)}
			hub := VertexID(op&fuzzHub1) >> 1
			if op&fuzzSrcHub != 0 {
				e.Src = hub
			}
			if op&fuzzDstHub != 0 {
				e.Dst = hub
			}
			edges = append(edges, e)
		}
		sameAsInserts(t, "fuzzed edges", int(data[0]), edges)
	})
}
