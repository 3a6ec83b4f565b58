// Package accel provides behavioural models of the competing hardware
// accelerators the paper compares against (Fig 15-18): HATS, Minnow, PHI,
// DepGraph, JetStream (plus JetStream-with), and GraphPulse. Each model
// implements engine.System over the shared runtime, reproducing the
// scheduling/prefetch policy that defines the accelerator so the
// comparison with TDGraph is mechanistic, not asserted: the baselines all
// lack propagation synchronisation (redundant updates remain) and — except
// the "-with" variants — state coalescing (scattered state lines remain).
package accel

import (
	"sort"

	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// HATS models hardware-accelerated traversal scheduling [36]: a per-core
// engine walks the graph in a bounded-DFS order and feeds the core
// vertices in a locality-friendly sequence, with edge and offset data
// prefetched by the engine. Processing remains iteration-synchronous and
// unmerged, so redundant updates persist.
type HATS struct {
	r *engine.Runtime
}

// NewHATS builds the model over a prepared runtime.
func NewHATS(r *engine.Runtime) *HATS { return &HATS{r: r} }

// Name implements engine.System.
func (h *HATS) Name() string { return "HATS" }

// Runtime implements engine.System.
func (h *HATS) Runtime() *engine.Runtime { return h.r }

// hatsEdge: the traversal engine fetches edges ahead of the core.
var hatsEdge = engine.EdgeCost{Prefetched: true, Ops: 3}

// Process implements engine.System.
func (h *HATS) Process(res graph.ApplyResult) {
	r := h.r
	r.Run(res, func() {
		r.Rounds(func(frontiers [][]graph.VertexID) {
			for ci, frontier := range frontiers {
				// The traversal scheduler emits vertices in graph
				// order; for CSR-adjacent storage that is
				// ascending-ID order, which maximises line sharing of
				// offsets and states.
				sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
				p := r.Ports[ci]
				p.SetPhase(sim.PhasePropagate)
				for _, v := range frontier {
					h.processVertex(v, p)
				}
			}
		})
	})
}

func (h *HATS) processVertex(v graph.VertexID, p sim.Port) {
	r := h.r
	r.C.Inc(stats.CtrVerticesProcessed)
	// Engine-side traversal: offsets and edges are prefetched, the core
	// pays only a dequeue instruction and the algorithmic work.
	r.ReadOffsets(v, p, false)
	p.Stall(0.3)
	if r.Mono != nil {
		r.RelaxOut(v, r.ReadState(v, p, true), p, hatsEdge, nil)
		return
	}
	// Accumulative path.
	p.Read(r.DeltaAddr(v), engine.DeltaBytes)
	dv := r.Delta[v]
	r.WriteDelta(v, 0, p, true)
	if dv == 0 {
		return
	}
	eps := r.Acc.Epsilon()
	if dv < eps && dv > -eps {
		return
	}
	sv := r.ReadState(v, p, true)
	r.WriteState(v, sv+dv, p, true)
	r.ScatterOut(v, dv, p, hatsEdge, nil)
}
