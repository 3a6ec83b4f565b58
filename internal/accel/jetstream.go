package accel

import (
	"math"
	"sort"

	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// JetStream models the event-driven streaming-graph accelerator [44]:
// graph updates and propagations are events; a per-core event queue holds
// (vertex, value) records, coalescing events that target a vertex already
// queued; the engine prefetches the state and adjacency of the event at
// the head of the queue. There is no topology awareness, so an event can
// be processed before all of the propagations destined for its vertex
// have arrived — the redundancy TDGraph removes. The paper's Fig 16 also
// counts JetStream's useless prefetches (adjacency fetched for events
// that do not improve the state).
type JetStream struct {
	r *engine.Runtime
	// WithCoalescing adds VSCU-style hot-state coalescing
	// ("JetStream-with", Fig 17).
	WithCoalescing bool
	hot            *hotStates

	queues []*eventQueue
	// QueueCap bounds each queue; overflow spills to memory.
	QueueCap int
	// queueRegion backs the event queues in simulated memory: JetStream
	// keeps its event pool in DRAM behind a small on-chip cache, so
	// enqueues and dequeues are (sequential) memory traffic.
	queueRegion sim.Region
	queueCursor uint64
	// gather, when set, runs before each event is processed
	// (GraphPulse's in-edge re-aggregation).
	gather func(v graph.VertexID, p sim.Port)
}

type eventQueue struct {
	vals  map[graph.VertexID]float64
	order []graph.VertexID
}

// NewJetStream builds the model over a prepared runtime.
func NewJetStream(r *engine.Runtime, withCoalescing bool) *JetStream {
	j := &JetStream{r: r, WithCoalescing: withCoalescing, QueueCap: 4096}
	j.queues = make([]*eventQueue, len(r.Chunks))
	for i := range j.queues {
		j.queues[i] = &eventQueue{vals: make(map[graph.VertexID]float64)}
	}
	if r.M != nil {
		j.queueRegion = r.M.Alloc("jetstream_event_pool", uint64(len(r.Chunks)*j.QueueCap*8))
		r.M.MarkCoherent(j.queueRegion)
	}
	if withCoalescing {
		j.hot = newHotStates(r, 0.005)
		r.StateAddr = j.hot.Addr
	}
	return j
}

// Name implements engine.System.
func (j *JetStream) Name() string {
	if j.WithCoalescing {
		return "JetStream-with"
	}
	return "JetStream"
}

// Runtime implements engine.System.
func (j *JetStream) Runtime() *engine.Runtime { return j.r }

// enqueue inserts or coalesces an event.
func (j *JetStream) enqueue(v graph.VertexID, val float64, p sim.Port) {
	r := j.r
	q := j.queues[r.OwnerOf(v)]
	if old, ok := q.vals[v]; ok {
		// Coalesce in the queue: min for monotonic, sum for deltas.
		if r.Mono != nil {
			if r.Mono.Better(val, old) {
				q.vals[v] = val
			}
		} else {
			q.vals[v] = old + val
		}
		r.C.Inc(stats.CtrEventsCoalesced)
		return
	}
	if len(q.order) >= j.QueueCap {
		// Spill: one event record to memory and back.
		p.Write(r.L.ActiveAddr(v), 8)
		p.Read(r.L.ActiveAddr(v), 8)
	}
	q.vals[v] = val
	q.order = append(q.order, v)
	r.C.Inc(stats.CtrEventsEnqueued)
	// Event record written to the memory-backed pool.
	p.PrefetchWrite(j.queueSlot(), 8)
}

// queueSlot returns the next event-pool slot address (round-robin).
func (j *JetStream) queueSlot() uint64 {
	j.queueCursor++
	return j.queueRegion.Base + (j.queueCursor%uint64(max(1, int(j.queueRegion.Size/8))))*8
}

// Process implements engine.System. Repair seeds the initial events; the
// engine then drains the queues event by event.
func (j *JetStream) Process(res graph.ApplyResult) {
	r := j.r
	r.Run(res, func() {
		// Convert the repair's activations into events.
		for ci := range r.Chunks {
			for _, v := range r.TakeActive(ci) {
				if r.Mono != nil {
					j.enqueue(v, r.S[v], r.Ports[ci])
				} else {
					j.enqueue(v, r.Delta[v], r.Ports[ci])
					r.Delta[v] = 0
				}
			}
		}
		for j.hasEvents() {
			r.C.Inc(stats.CtrIterations)
			for ci, q := range j.queues {
				p := r.Ports[ci]
				p.SetPhase(sim.PhasePropagate)
				// Drain the queue snapshot; new events (including
				// local ones) are processed in the next sweep,
				// mirroring the pipelined event flow.
				batch := q.order
				q.order = nil
				for _, v := range batch {
					val, ok := q.vals[v]
					if !ok {
						continue
					}
					delete(q.vals, v)
					if j.gather != nil {
						j.gather(v, p)
					}
					j.processEvent(v, val, p)
				}
			}
			r.Barrier()
		}
	})
}

func (j *JetStream) hasEvents() bool {
	for _, q := range j.queues {
		if len(q.order) > 0 {
			return true
		}
	}
	return false
}

// processEvent applies one event and emits follow-on events. The engine
// prefetches state and adjacency (event-driven pipeline), so accesses do
// not stall; a fixed pipeline occupancy is charged per event and edge.
func (j *JetStream) processEvent(v graph.VertexID, val float64, p sim.Port) {
	r := j.r
	r.C.Inc(stats.CtrVerticesProcessed)
	p.Stall(1)
	// Dequeue the event record from the pool.
	p.Prefetch(j.queueSlot(), 8)
	if j.hot != nil {
		j.hot.Touch(v, p)
	}
	if r.Mono != nil {
		sv := r.ReadState(v, p, false)
		r.ReadOffsets(v, p, false)
		deg := r.G.OutDegree(v)
		if !r.Mono.Better(val, sv) && val != sv {
			// The event does not improve the state: its prefetched
			// adjacency was useless (Fig 16).
			r.C.Add(stats.CtrPrefetchUseless, uint64(deg))
			return
		}
		if r.Mono.Better(val, sv) {
			r.WriteState(v, val, p, false)
		}
		base := r.G.Offsets[v]
		ns := r.G.OutNeighbors(v)
		ws := r.G.OutWeights(v)
		sv = r.S[v]
		for i, w := range ns {
			r.C.Inc(stats.CtrEdgesProcessed)
			r.CountUpdateOp()
			r.C.Inc(stats.CtrPrefetchedEdges)
			r.ReadEdge(base+uint64(i), p, false)
			p.Stall(0.5)
			p.Compute(2)
			cand := r.Mono.Propagate(sv, ws[i])
			sw := r.ReadState(w, p, false)
			r.C.Inc(stats.CtrPropagationVisits)
			if r.Mono.Better(cand, sw) {
				j.enqueue(w, cand, p)
			} else {
				r.C.Inc(stats.CtrPrefetchUseless)
			}
		}
		return
	}
	// Accumulative: the event carries a delta.
	eps := r.Acc.Epsilon()
	if math.Abs(val) <= eps {
		return
	}
	sv := r.ReadState(v, p, false)
	r.WriteState(v, sv+val, p, false)
	r.ReadOffsets(v, p, false)
	deg := r.G.OutDegree(v)
	if deg == 0 {
		return
	}
	d := r.Acc.Damping()
	tw := r.TotalOutWeightOf(v)
	base := r.G.Offsets[v]
	ns := r.G.OutNeighbors(v)
	ws := r.G.OutWeights(v)
	for i, w := range ns {
		r.C.Inc(stats.CtrEdgesProcessed)
		r.CountUpdateOp()
		r.C.Inc(stats.CtrPrefetchedEdges)
		r.ReadEdge(base+uint64(i), p, false)
		p.Stall(0.5)
		p.Compute(2)
		contrib := d * val * r.Acc.Share(ws[i], deg, tw)
		if contrib == 0 {
			continue
		}
		r.C.Inc(stats.CtrPropagationVisits)
		j.enqueue(w, contrib, p)
	}
}

// hotStates is the lightweight VSCU-style coalescer used by
// JetStream-with: the top-α highest-degree vertices (degree approximates
// access frequency without a Topology_List) get dense slots.
type hotStates struct {
	r      *engine.Runtime
	slotOf []int32
	region sim.Region
}

func newHotStates(r *engine.Runtime, alpha float64) *hotStates {
	n := r.G.NumVertices
	h := &hotStates{r: r, slotOf: make([]int32, n)}
	for i := range h.slotOf {
		h.slotOf[i] = -1
	}
	quota := int(float64(n) * alpha)
	if quota < 1 {
		quota = 1
	}
	type vd struct {
		v graph.VertexID
		d int
	}
	cands := make([]vd, 0, n)
	for v := 0; v < n; v++ {
		if d := r.G.OutDegree(graph.VertexID(v)) + r.G.InDegree(graph.VertexID(v)); d > 0 {
			cands = append(cands, vd{v: graph.VertexID(v), d: d})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d > cands[j].d
		}
		return cands[i].v < cands[j].v
	})
	if len(cands) > quota {
		cands = cands[:quota]
	}
	if r.M != nil {
		h.region = r.M.Alloc("jetstream_coalesced_states", uint64(quota+1)*engine.StateBytes)
		r.M.TrackUseful(h.region)
		r.M.MarkHot(h.region)
		r.M.MarkCoherent(h.region)
	}
	for i, c := range cands {
		h.slotOf[c.v] = int32(i)
	}
	return h
}

// Addr resolves hot vertices into the dense region.
func (h *hotStates) Addr(v graph.VertexID) uint64 {
	if s := h.slotOf[v]; s >= 0 && h.region.Size > 0 {
		return h.region.Base + uint64(s)*engine.StateBytes
	}
	return h.r.L.States.Base + uint64(v)*engine.StateBytes
}

// Touch charges the lookup cost.
func (h *hotStates) Touch(v graph.VertexID, p sim.Port) {
	p.Prefetch(h.r.L.ActiveAddr(v), 1)
	if h.slotOf[v] >= 0 {
		h.r.C.Inc(stats.CtrHotHits)
	}
}
