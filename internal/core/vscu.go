package core

import (
	"sort"

	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// VSCU is the Vertex States Coalescing Unit (§3.3.3). The software layer
// identifies the top-α most frequently accessed vertices per chunk from
// the tracked Topology_List (access frequency ≈ number of propagations
// passing through a vertex), records them in Hot_Vertices, and the unit
// redirects their state accesses into the dense Coalesced_States array
// via H_Table, assigning slots sequentially on first access.
type VSCU struct {
	t *TDGraph

	hot    []bool
	slotOf []int32
	next   uint64
	cap    uint64

	htEntries uint64
}

func newVSCU(t *TDGraph) *VSCU {
	n := t.r.G.NumVertices
	capacity := uint64(float64(n)*t.cfg.Alpha) + 1
	v := &VSCU{
		t:         t,
		hot:       make([]bool, n),
		slotOf:    make([]int32, n),
		cap:       capacity,
		htEntries: uint64(float64(capacity)/0.75) + 1,
	}
	for i := range v.slotOf {
		v.slotOf[i] = -1
	}
	return v
}

// Identify selects the chunk's hot vertices after the first tracking
// phase: the top α-fraction by Topology_List count (ties broken by lower
// ID for determinism). This is a software-level operation in both
// variants (§3.3.3), charged to the chunk's core.
func (u *VSCU) Identify(chunk graph.Chunk, p sim.Port) {
	r := u.t.r
	quota := int(float64(chunk.Len()) * u.t.cfg.Alpha)
	if quota == 0 && chunk.Len() > 0 {
		quota = 1
	}
	type cand struct {
		v graph.VertexID
		c int32
	}
	var cands []cand
	for v := chunk.Start; v < chunk.End; v++ {
		p.Compute(1)
		if u.t.topo[v] > 0 {
			cands = append(cands, cand{v: v, c: u.t.topo[v]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].c != cands[j].c {
			return cands[i].c > cands[j].c
		}
		return cands[i].v < cands[j].v
	})
	if len(cands) > quota {
		cands = cands[:quota]
	}
	p.Compute(len(cands) * 2)
	for _, cd := range cands {
		u.hot[cd.v] = true
		if r.M != nil {
			p.Write(r.L.HotAddr(cd.v), 1)
		}
	}
}

// Touch models the VSCU lookup preceding a state access: the
// Hot_Vertices check, and for hot vertices the H_Table probe (with
// sequential slot consolidation on first access). In the software
// variant the same work costs indexing instructions (§3.1).
func (u *VSCU) Touch(v graph.VertexID, p sim.Port) {
	t := u.t
	r := t.r
	if r.M != nil {
		if t.cfg.Hardware {
			p.Prefetch(r.L.HotAddr(v), 1)
		} else {
			p.Read(r.L.HotAddr(v), 1)
			p.Compute(2)
			r.C.Add(stats.CtrSWIndexInstrs, 2)
		}
	}
	if !u.hot[v] {
		return
	}
	r.C.Inc(stats.CtrHTableProbes)
	slot := u.slotOf[v]
	if slot < 0 {
		// First access: consolidate the state into the next empty
		// Coalesced_States entry and create the H_Table record.
		if u.next >= u.cap {
			// Capacity exhausted — treat as non-hot from now on.
			u.hot[v] = false
			r.C.Inc(stats.CtrHotMisses)
			return
		}
		slot = int32(u.next)
		u.next++
		u.slotOf[v] = slot
		r.C.Inc(stats.CtrCoalescedInserts)
		if r.M != nil {
			// Fetch the state from Vertex_States_Array and store it
			// into Coalesced_States + H_Table entry.
			from := r.L.States.Base + uint64(v)*engine.StateBytes
			if t.cfg.Hardware {
				p.Prefetch(from, engine.StateBytes)
				p.PrefetchWrite(r.L.CoalescedAddr(uint64(slot)), engine.StateBytes)
				p.PrefetchWrite(r.L.HTableAddr(u.hash(v)), engine.HTEntryBytes)
			} else {
				p.Read(from, engine.StateBytes)
				p.Write(r.L.CoalescedAddr(uint64(slot)), engine.StateBytes)
				p.Write(r.L.HTableAddr(u.hash(v)), engine.HTEntryBytes)
				p.Compute(6)
				r.C.Add(stats.CtrSWIndexInstrs, 6)
			}
		}
	} else {
		r.C.Inc(stats.CtrHotHits)
		if r.M != nil {
			if t.cfg.Hardware {
				// Pipelined probe inside the VSCU — traffic only.
				p.Prefetch(r.L.HTableAddr(u.hash(v)), engine.HTEntryBytes)
			} else {
				p.Read(r.L.HTableAddr(u.hash(v)), engine.HTEntryBytes)
				p.Compute(4)
				r.C.Add(stats.CtrSWIndexInstrs, 4)
			}
		}
	}
}

func (u *VSCU) hash(v graph.VertexID) uint64 {
	return (uint64(v) * 2654435761) % u.htEntries
}

// Addr is the state-address hook installed on the runtime: hot vertices
// resolve into Coalesced_States once they have a slot, everything else
// into Vertex_States_Array.
func (u *VSCU) Addr(v graph.VertexID) uint64 {
	if u.hot[v] {
		if s := u.slotOf[v]; s >= 0 {
			return u.t.r.L.CoalescedAddr(uint64(s))
		}
	}
	return u.t.r.L.States.Base + uint64(v)*engine.StateBytes
}

// WriteBack flushes Coalesced_States into Vertex_States_Array at the end
// of batch processing (§3.2.2).
func (u *VSCU) WriteBack() {
	r := u.t.r
	if r.M == nil {
		return
	}
	for v, slot := range u.slotOf {
		if slot < 0 {
			continue
		}
		p := r.PortOf(graph.VertexID(v))
		p.SetPhase(sim.PhaseOther)
		if u.t.cfg.Hardware {
			p.Prefetch(r.L.CoalescedAddr(uint64(slot)), engine.StateBytes)
			p.PrefetchWrite(r.L.States.Base+uint64(v)*engine.StateBytes, engine.StateBytes)
		} else {
			p.Read(r.L.CoalescedAddr(uint64(slot)), engine.StateBytes)
			p.Write(r.L.States.Base+uint64(v)*engine.StateBytes, engine.StateBytes)
			p.Compute(2)
		}
	}
}

// HotCount returns how many vertices are currently marked hot (tests).
func (u *VSCU) HotCount() int {
	n := 0
	for _, h := range u.hot {
		if h {
			n++
		}
	}
	return n
}

// SlotCount returns how many coalesced slots have been assigned (tests).
func (u *VSCU) SlotCount() int { return int(u.next) }
