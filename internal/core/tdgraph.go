package core

import (
	"math"

	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// TDGraph is the topology-driven engine (one logical TDTU+VSCU per core,
// §3.2). It implements engine.System.
type TDGraph struct {
	r   *engine.Runtime
	cfg Config

	vscu *VSCU

	// topo is the functional Topology_List: the number of tracked
	// propagations that still have to pass through each vertex.
	topo []int32

	// edgeEpoch marks visited edges; epoch advances per chunk-phase so
	// the array never needs clearing.
	edgeEpoch []uint32
	epoch     uint32

	// walkStart records the processing epoch in which a vertex's
	// out-edge walk began; improvements arriving after that defer to
	// the next round.
	walkStart []uint32
	// onStackEpoch marks vertices currently on the tracking DFS stack:
	// an edge into an on-stack vertex is a back edge closing a cycle,
	// and its propagation is excluded from Topology_List (waiting for
	// it would deadlock the counter — the hardware sees the cycle for
	// free because the ancestor sits in the stack window).
	onStackEpoch []uint32
	// pendingFlag marks in-chunk vertices that received new state (or
	// delta) but have not been walked yet this epoch.
	pendingFlag []bool
	// inSetEpoch dedups root-queue insertion per epoch.
	inSetEpoch []uint32
	// rootEpoch marks tracking roots per epoch (array, not map — it is
	// tested once per tracked edge).
	rootEpoch []uint32

	// dvOf holds, for accumulative algorithms, the settled delta a
	// vertex is currently propagating.
	dvOf []float64

	stack []level

	// Per-epoch root queues: zeroQ holds active vertices whose
	// Topology_List value is zero; waitBuckets holds the rest bucketed
	// by Topology_List value, served lowest-count-first when the cores
	// would otherwise idle (footnote 3). Bucket membership is lazy: a
	// vertex whose counter drained after enqueue is re-bucketed at pop
	// time.
	zeroQ       []graph.VertexID
	waitBuckets [][]graph.VertexID
	waitCount   int
}

// level is one TDTU hardware-stack entry: vertex ID plus the current/end
// offsets of its unvisited edges (Fig 8; the cached neighbour-ID line is
// implicit in the simulated accesses).
type level struct {
	v        graph.VertexID
	cur, end uint64
}

// New builds a TDGraph engine over a prepared runtime.
func New(cfg Config, r *engine.Runtime) *TDGraph {
	cfg = cfg.withDefaults()
	n := r.G.NumVertices
	t := &TDGraph{
		r:            r,
		cfg:          cfg,
		topo:         make([]int32, n),
		edgeEpoch:    make([]uint32, r.G.NumEdges()),
		walkStart:    make([]uint32, n),
		onStackEpoch: make([]uint32, n),
		pendingFlag:  make([]bool, n),
		rootEpoch:    make([]uint32, n),
		inSetEpoch:   make([]uint32, n),
		stack:        make([]level, 0, cfg.StackDepth),
	}
	if r.Acc != nil {
		t.dvOf = make([]float64, n)
	}
	if cfg.EnableVSCU {
		t.vscu = newVSCU(t)
		r.StateAddr = t.vscu.Addr
		// Note: coalescing the pending-delta entries as well (see
		// VSCU.installDeltaHook) measured slightly negative at the
		// scaled working-set sizes — the hot deltas are already
		// cache-resident — so it stays available but off by default.
	}
	return t
}

// Name implements engine.System.
func (t *TDGraph) Name() string { return t.cfg.VariantName() }

// Runtime implements engine.System.
func (t *TDGraph) Runtime() *engine.Runtime { return t.r }

// Config returns the engine configuration.
func (t *TDGraph) Config() Config { return t.cfg }

// Topo exposes the Topology_List for tests and the bench harness
// (hot-vertex analyses).
func (t *TDGraph) Topo() []int32 { return t.topo }

// VSCU exposes the coalescing unit (nil when disabled) for tests.
func (t *TDGraph) VSCU() *VSCU { return t.vscu }

// Process implements engine.System: repair, then rounds of per-chunk
// topology tracking and synchronised depth-first propagation until no
// vertex is active.
func (t *TDGraph) Process(res graph.ApplyResult) {
	r := t.r
	r.Run(res, func() {
		round := 0
		r.Rounds(func(frontiers [][]graph.VertexID) {
			round++
			t.round(round, frontiers)
		})
		if t.vscu != nil {
			t.vscu.WriteBack()
		}
	})
}

// round runs one round: topology tracking (the first round only) and
// synchronised propagation.
func (t *TDGraph) round(round int, frontiers [][]graph.VertexID) {
	r := t.r
	// Phase A: topology tracking, once per batch (the paper tracks
	// at chunk dispatch; later activations ride the already-built
	// Topology_List, and the decay tail proceeds eagerly once the
	// counters have drained). Roots are chunk-local (each core's
	// TDTU starts from its own active vertices) but the traversal
	// follows the topology globally — Topology_List is a shared
	// in-memory array (§3.3.1), so propagation counts from all
	// cores merge.
	if !t.cfg.DisableSync && round == 1 {
		t.epoch++
		for _, roots := range frontiers {
			for _, v := range roots {
				t.rootEpoch[v] = t.epoch
			}
		}
		for ci, roots := range frontiers {
			if len(roots) == 0 {
				continue
			}
			p := r.Ports[ci]
			p.SetPhase(sim.PhaseOther)
			t.track(roots, p)
		}
		if t.vscu != nil {
			for ci := range r.Chunks {
				if r.Chunks[ci].Len() == 0 {
					continue
				}
				p := r.Ports[ci]
				p.SetPhase(sim.PhaseOther)
				t.vscu.Identify(r.Chunks[ci], p)
			}
		}
	}
	// Phase B: synchronised prefetch + processing. The cores run
	// concurrently in hardware, so a waiting root on one core
	// pauses until traversals from other cores drain its counter;
	// the simulator models that with one global root schedule per
	// round (zero-count roots from any core before any idle-core
	// wait pop), charging each walk to the initiating root's core.
	//
	// The tracked round carries the batch's merged propagation
	// wave depth-first; later rounds are small residual fixups
	// (cycle returns, late arrivals) whose counters have already
	// drained, so they advance as plain one-hop refinements rather
	// than re-descending with unordered provisional values.
	t.epoch++
	for _, p := range r.Ports {
		p.SetPhase(sim.PhasePropagate)
	}
	if round == 1 || t.cfg.DisableSync {
		t.process(frontiers)
	} else {
		t.residual(r.StealBalance(frontiers))
	}
}

// track is the TDTU's graph-topology-tracking phase (§3.3.2): a bounded
// depth-first traversal from every active root of the chunk that counts,
// in the shared Topology_List, how many propagations will pass through
// each vertex. Traversal does not descend into other active roots (their
// own traversal covers their successors); the caller advances the epoch
// once per round so edges are tracked at most once across all cores.
func (t *TDGraph) track(roots []graph.VertexID, p sim.Port) {
	r := t.r
	ep := t.epoch
	// queue holds the traversal roots: the chunk's active vertices plus
	// continuation points cut off by the bounded stack (the hardware
	// restarts a new traversal from the cut neighbour, §3.3.2).
	queue := make([]graph.VertexID, len(roots))
	copy(queue, roots)
	for qi := 0; qi < len(queue); qi++ {
		root := queue[qi]
		if t.inSetEpoch[root] == ep && qi < len(roots) {
			continue // duplicate initial root
		}
		t.inSetEpoch[root] = ep
		t.stack = t.stack[:0]
		t.push(root, p, false)
		t.onStackEpoch[root] = ep
		for len(t.stack) > 0 {
			lv := &t.stack[len(t.stack)-1]
			if lv.cur >= lv.end {
				t.onStackEpoch[lv.v] = 0
				t.stack = t.stack[:len(t.stack)-1]
				r.C.Inc(stats.CtrStackPops)
				continue
			}
			e := lv.cur
			lv.cur++
			if t.edgeEpoch[e] == ep {
				continue
			}
			t.edgeEpoch[e] = ep
			w := r.G.Neighbors[e]
			// Traversal work is spread over the TDTUs: the engine
			// paired with the core owning the source vertex's chunk
			// walks this edge.
			pe := r.PortOf(lv.v)
			t.engineAccess(pe, r.L.NeighborAddr(e), engine.VertexIDBytes, false, 8, 0.1)
			if t.onStackEpoch[w] == ep {
				// Back edge to an ancestor in the stack window: the
				// propagation closes a cycle, so waiting for it would
				// deadlock the counter — exclude it (§3.3.2 stack).
				continue
			}
			// Synchronize_Propagation: count one propagation through w.
			t.topo[w]++
			t.engineAccess(pe, r.L.TopoAddr(w), engine.TopoBytes, true, 2, 0.05)
			r.C.Inc(stats.CtrTrackingVisits)
			if t.rootEpoch[w] == ep || t.inSetEpoch[w] == ep {
				continue
			}
			t.inSetEpoch[w] = ep
			if len(t.stack) >= t.cfg.StackDepth {
				// Stack full: restart a new traversal from w later.
				r.C.Inc(stats.CtrStackOverflows)
				queue = append(queue, w)
				continue
			}
			t.push(w, r.PortOf(w), false)
			t.onStackEpoch[w] = ep
		}
	}
}

// process is the TDTU's graph-data-prefetching phase plus the paired
// core's consumption of the Fetched Buffer: roots whose Topology_List
// value has drained to zero are traversed depth-first, edges are
// prefetched and handed to the algorithm, and each traversed edge drains
// the destination's counter so the states of multiple affected ancestors
// merge before a vertex propagates. Roots come from the paired core's
// chunk; the traversal itself follows the topology globally.
func (t *TDGraph) process(frontiers [][]graph.VertexID) {
	r := t.r
	ep := t.epoch
	t.zeroQ = t.zeroQ[:0]
	for b := range t.waitBuckets {
		t.waitBuckets[b] = t.waitBuckets[b][:0]
	}
	t.waitCount = 0
	for _, roots := range frontiers {
		for _, v := range roots {
			t.enqueueRoot(v, ep)
		}
	}
	for {
		// Root scheduling is global (concurrent cores), but each walk
		// is charged to the core owning the root's chunk.
		schedPort := r.Ports[0]
		root, ok := t.pickRoot(schedPort)
		if !ok {
			break
		}
		if t.walkStart[root] == ep {
			continue // already walked via a descent
		}
		t.walk(root, ep, r.PortOf(root))
	}
}

// maxWaitBucket clamps the bucket index for very high counts.
const maxWaitBucket = 63

// residual advances the post-wave fixups one hop: each re-activated
// vertex settles its pending delta (accumulative) and refines its
// out-neighbours once, activating changed destinations for the next
// round. No stack, no counters — they drained in the tracked round.
func (t *TDGraph) residual(frontiers [][]graph.VertexID) {
	r := t.r
	ep := t.epoch
	for ci, roots := range frontiers {
		p := r.Ports[ci]
		for _, v := range roots {
			t.walkStart[v] = ep
			t.pendingFlag[v] = false
			r.C.Inc(stats.CtrVerticesProcessed)
			if r.Mono != nil {
				t.touchState(v, p)
				t.readState(v, p)
			}
			if r.Acc != nil {
				dv := r.Delta[v]
				if math.Abs(dv) > r.Acc.Epsilon() {
					t.touchState(v, p)
					r.CountUpdateOp()
					sv := t.readState(v, p)
					t.writeState(v, sv+dv, p)
					t.dvOf[v] = dv
					r.Delta[v] = 0
					t.engineAccess(p, r.DeltaAddr(v), engine.DeltaBytes, true, 1, 0.1)
				} else {
					t.dvOf[v] = 0
					continue
				}
			}
			t.engineAccess(p, r.L.OffsetAddr(v), engine.OffsetBytes*2, false, 4, 0.2)
			base := r.G.Offsets[v]
			ns := r.G.OutNeighbors(v)
			ws := r.G.OutWeights(v)
			for i, w := range ns {
				e := base + uint64(i)
				t.fetchEdge(e, w, p)
				if t.processEdge(v, w, ws[i], e, p) {
					r.Activate(w, p)
				}
			}
		}
	}
}

// enqueueRoot places v on the zero queue or a wait bucket once per epoch.
func (t *TDGraph) enqueueRoot(v graph.VertexID, ep uint32) {
	if t.inSetEpoch[v] == ep {
		return
	}
	t.inSetEpoch[v] = ep
	if t.topo[v] == 0 {
		t.zeroQ = append(t.zeroQ, v)
		return
	}
	t.bucketPut(v)
}

func (t *TDGraph) bucketPut(v graph.VertexID) {
	b := int(t.topo[v])
	if b > maxWaitBucket {
		b = maxWaitBucket
	}
	for len(t.waitBuckets) <= b {
		t.waitBuckets = append(t.waitBuckets, nil)
	}
	t.waitBuckets[b] = append(t.waitBuckets[b], v)
	t.waitCount++
}

// pickRoot implements Fetch_Root: a zero-count active vertex if any,
// otherwise the waiting vertex with the lowest Topology_List value
// (footnote 3's idle-core rule, which both breaks cycles and pops the
// most-complete vertices first). Stale bucket entries re-bucket lazily.
func (t *TDGraph) pickRoot(p sim.Port) (graph.VertexID, bool) {
	for len(t.zeroQ) > 0 {
		v := t.zeroQ[len(t.zeroQ)-1]
		t.zeroQ = t.zeroQ[:len(t.zeroQ)-1]
		p.Compute(1)
		return v, true
	}
	for b := 1; b < len(t.waitBuckets); b++ {
		for len(t.waitBuckets[b]) > 0 {
			q := t.waitBuckets[b]
			v := q[len(q)-1]
			t.waitBuckets[b] = q[:len(q)-1]
			t.waitCount--
			p.Compute(1)
			if t.walkStart[v] == t.epoch {
				continue
			}
			// Re-bucket if the counter drained since enqueue.
			cur := int(t.topo[v])
			if cur > maxWaitBucket {
				cur = maxWaitBucket
			}
			if cur < b {
				if cur == 0 {
					return v, true
				}
				t.waitBuckets[cur] = append(t.waitBuckets[cur], v)
				t.waitCount++
				// The entry moved behind the scan cursor; restart the
				// sweep from its new bucket or it would be lost.
				b = cur - 1
				break
			}
			return v, true
		}
	}
	return 0, false
}

// walk runs one bounded-depth DFS traversal rooted at root, processing
// every unvisited edge it reaches.
func (t *TDGraph) walk(root graph.VertexID, ep uint32, p sim.Port) {
	r := t.r
	t.stack = t.stack[:0]
	t.beginVertex(root, ep, p)
	for len(t.stack) > 0 {
		lv := &t.stack[len(t.stack)-1]
		if lv.cur >= lv.end {
			t.stack = t.stack[:len(t.stack)-1]
			r.C.Inc(stats.CtrStackPops)
			continue
		}
		e := lv.cur
		lv.cur++
		if t.edgeEpoch[e] == ep {
			continue
		}
		t.edgeEpoch[e] = ep
		w := r.G.Neighbors[e]
		weight := r.G.Weights[e]
		// Work spreads over the TDTUs: the engine of the core owning
		// the source vertex's chunk carries this edge.
		pe := r.PortOf(lv.v)
		t.fetchEdge(e, w, pe)
		changed := t.processEdge(lv.v, w, weight, e, pe)
		if t.topo[w] > 0 {
			t.topo[w]--
			t.engineAccess(pe, r.L.TopoAddr(w), engine.TopoBytes, true, 2, 0.05)
		}
		if changed {
			if t.walkStart[w] == ep {
				// Late arrival: w was already walked (or is being
				// walked) this epoch — defer re-propagation to the
				// next round.
				r.Activate(w, pe)
				r.C.Inc(stats.CtrRedundantRevisit)
				continue
			}
			t.pendingFlag[w] = true
		}
		if t.walkStart[w] == ep || !t.needsWalk(w) {
			continue
		}
		switch {
		case t.topo[w] == 0:
			if len(t.stack) < t.cfg.StackDepth {
				t.pendingFlag[w] = false
				t.beginVertex(w, ep, r.PortOf(w))
			} else {
				r.C.Inc(stats.CtrStackOverflows)
				t.pendingFlag[w] = true
				t.enqueueRoot(w, ep)
			}
		default:
			// Waiting for more propagations to arrive; it will be
			// descended into by the edge that drains its counter, or
			// picked as a lowest-count root.
			t.pendingFlag[w] = true
			t.enqueueRoot(w, ep)
		}
	}
}

// beginVertex pushes v, charges its offset fetch, and settles its pending
// delta (accumulative): the merged delta of all ancestors is applied to
// the state exactly once, which is the redundancy reduction of §3.1.
func (t *TDGraph) beginVertex(v graph.VertexID, ep uint32, p sim.Port) {
	r := t.r
	t.walkStart[v] = ep
	t.pendingFlag[v] = false
	if r.Mono != nil {
		// One settled source-state read per walked vertex; the value
		// then stays register-resident for the whole walk.
		t.touchState(v, p)
		t.readState(v, p)
	}
	if r.Acc != nil {
		dv := r.Delta[v]
		if math.Abs(dv) > r.Acc.Epsilon() {
			t.touchState(v, p)
			r.CountUpdateOp()
			sv := t.readState(v, p)
			t.writeState(v, sv+dv, p)
			t.dvOf[v] = dv
			r.Delta[v] = 0
			t.engineAccess(p, r.DeltaAddr(v), engine.DeltaBytes, true, 1, 0.1)
		} else {
			t.dvOf[v] = 0
		}
	}
	t.push(v, p, true)
}

// push places v on the TDTU stack (Fetch_Offsets: read the offset pair).
func (t *TDGraph) push(v graph.VertexID, p sim.Port, processing bool) {
	r := t.r
	t.engineAccess(p, r.L.OffsetAddr(v), engine.OffsetBytes*2, false, 4, 0.2)
	t.stack = append(t.stack, level{v: v, cur: r.G.Offsets[v], end: r.G.Offsets[v+1]})
	r.C.Inc(stats.CtrStackPushes)
	if processing {
		r.C.Inc(stats.CtrVerticesProcessed)
	}
}

// fetchEdge models Fetch_Neighbors + Fetch_States: the TDTU prefetches
// the edge record and both endpoint states into the Fetched Buffer, and
// the core consumes it via TD_FETCH_EDGE.
func (t *TDGraph) fetchEdge(e uint64, w graph.VertexID, p sim.Port) {
	r := t.r
	r.C.Inc(stats.CtrEdgesProcessed)
	r.C.Inc(stats.CtrPrefetchedEdges)
	t.engineAccess(p, r.L.NeighborAddr(e), engine.VertexIDBytes, false, 4, 0.3)
	t.engineAccess(p, r.L.WeightAddr(e), engine.WeightBytes, false, 0, 0)
	if t.cfg.Hardware {
		// TD_FETCH_EDGE: one instruction to drain the Fetched Buffer.
		p.Compute(1)
	}
}

// processEdge applies the algorithm across edge v→w and reports whether
// w's state (or pending delta) changed. The Fetched Buffer carries both
// endpoint states alongside the edge (Fetch_States, §3.3.2), so the core
// issues TD_UPDATE_STATE — a counted vertex state update — only when the
// application actually changes the destination; the software baselines
// have no paired-state prefetch and must issue their update op per edge.
func (t *TDGraph) processEdge(v, w graph.VertexID, weight float32, e uint64, p sim.Port) bool {
	r := t.r
	r.C.Inc(stats.CtrPropagationVisits)
	if r.Mono != nil {
		sv := r.S[v] // settled when v's walk began; register-resident
		cand := r.Mono.Propagate(sv, weight)
		t.touchState(w, p)
		sw := t.readState(w, p)
		p.Compute(3)
		if r.Mono.Better(cand, sw) {
			r.CountUpdateOp()
			t.writeState(w, cand, p)
			r.WriteParent(w, int32(v), p, t.cfg.Hardware == false)
			return true
		}
		return false
	}
	dv := t.dvOf[v]
	if dv == 0 {
		p.Compute(1)
		return false
	}
	deg := r.G.OutDegree(v)
	tw := r.TotalOutWeightOf(v)
	contrib := r.Acc.Damping() * dv * r.Acc.Share(weight, deg, tw)
	p.Compute(3)
	if contrib == 0 {
		return false
	}
	r.Delta[w] += contrib
	t.engineAccess(p, r.DeltaAddr(w), engine.DeltaBytes, true, 1, 0.1)
	return math.Abs(r.Delta[w]) > r.Acc.Epsilon()
}

// needsWalk reports whether w still has something to propagate.
func (t *TDGraph) needsWalk(w graph.VertexID) bool {
	if t.pendingFlag[w] {
		return true
	}
	if t.r.Acc != nil {
		return math.Abs(t.r.Delta[w]) > t.r.Acc.Epsilon()
	}
	return false
}

// readState/writeState/touchState wrap the runtime state accessors with
// the variant's cost model (VSCU probe + hardware/software cost).
func (t *TDGraph) readState(v graph.VertexID, p sim.Port) float64 {
	return t.r.ReadState(v, p, !t.cfg.Hardware)
}

func (t *TDGraph) writeState(v graph.VertexID, val float64, p sim.Port) {
	if t.cfg.Hardware {
		// TD_UPDATE_STATE: single instruction, engine-performed store.
		p.Compute(1)
	}
	t.r.WriteState(v, val, p, !t.cfg.Hardware)
}

// touchState charges the VSCU lookup (Hot_Vertices check + H_Table probe)
// that precedes a state access.
func (t *TDGraph) touchState(v graph.VertexID, p sim.Port) {
	if t.vscu != nil {
		t.vscu.Touch(v, p)
	}
}

// engineAccess models one bookkeeping access with the variant's cost:
// hardware engines issue a non-stalling prefetch plus pipeline occupancy,
// the software implementation issues a stalled access plus instructions
// (§3.1 "Runtime Overhead").
func (t *TDGraph) engineAccess(p sim.Port, addr uint64, size int, write bool, swOps int, hwStall float64) {
	r := t.r
	if t.cfg.Hardware {
		if write {
			p.PrefetchWrite(addr, size)
		} else {
			p.Prefetch(addr, size)
		}
		if hwStall > 0 {
			p.Stall(hwStall)
		}
	} else {
		if write {
			p.Write(addr, size)
		} else {
			p.Read(addr, size)
		}
		if swOps > 0 {
			// The software implementation spends about half the
			// hardware-free instructions the naive port would (careful
			// unrolling), but still pays them on the core.
			p.Compute((swOps + 1) / 2)
			r.C.Add(stats.CtrSWTrackingInstrs, uint64((swOps+1)/2))
		}
		// Data-dependent branches limit ILP in the software version.
		p.Stall(0.25)
		r.C.Inc(stats.CtrSWBranchMisses)
	}
}
