// Package tdgraph is the public API of the TDGraph streaming-graph
// library: incremental graph algorithms over batched edge updates, the
// topology-driven processing engine of Zhao et al. (ISCA 2022), native
// parallel execution, and the architectural simulator behind the paper's
// evaluation.
//
// The central type is Session: it owns a mutable graph, keeps the
// algorithm's states converged across update batches, and processes each
// batch incrementally:
//
//	s, _ := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, numVertices, tdgraph.SessionOptions{})
//	res, _ := s.ApplyBatch([]tdgraph.Update{{Edge: tdgraph.Edge{Src: 1, Dst: 2, Weight: 3}}})
//	dist := s.State(2)
//
// Lower-level building blocks (generators, the simulator, the benchmark
// harness, the individual engine models) live in the internal packages
// and are exercised through cmd/ and the examples.
package tdgraph

import (
	"fmt"
	"runtime/debug"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/engine"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/stream"
)

// Re-exported graph types.
type (
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Edge is a weighted directed edge.
	Edge = graph.Edge
	// Update is one streaming update: an edge addition or deletion.
	Update = graph.Update
	// ApplyResult describes what a batch changed.
	ApplyResult = graph.ApplyResult
	// Snapshot is an immutable CSR/CSC graph snapshot.
	Snapshot = graph.Snapshot
	// Algorithm is the algorithm interface (see NewSSSP etc.).
	Algorithm = algo.Algorithm
)

// Algorithm constructors.
var (
	// NewSSSP returns single-source shortest paths from a root.
	NewSSSP = algo.NewSSSP
	// NewBFS returns hop counting from a root.
	NewBFS = algo.NewBFS
	// NewSSWP returns single-source widest path from a root.
	NewSSWP = algo.NewSSWP
	// NewCC returns connected-component labelling (min label over
	// ancestors; symmetrise the edge list for weakly-connected
	// components).
	NewCC = algo.NewCC
	// NewPageRank returns incremental PageRank.
	NewPageRank = algo.NewPageRank
	// NewAdsorption returns the Adsorption label-propagation algorithm.
	NewAdsorption = algo.NewAdsorption
	// LoadSNAPFile parses a SNAP-format edge list from disk.
	LoadSNAPFile = graph.LoadSNAPFile
)

// EngineKind selects how a Session processes batches.
type EngineKind int

const (
	// EngineTopologyDriven is the paper's contribution: topology-driven
	// incremental processing (TDGraph). Functional execution — no
	// architectural simulation — using the same algorithm as the
	// simulated TDGraph-H.
	EngineTopologyDriven EngineKind = iota
	// EngineBaseline is the frontier-synchronous incremental engine
	// (the Ligra-o discipline).
	EngineBaseline
	// EngineNativeParallel runs the real goroutine-parallel engines —
	// the fastest wall-clock option and the production serving path.
	// The session holds a mutable hybrid graph store (O(degree)
	// updates, no per-batch CSR rebuild) and, for monotonic algorithms,
	// a stateful incremental engine with persistent worklists, work
	// stealing, and software-TDTU propagation counters. Accumulative
	// algorithms use the parallel delta engine over sealed views.
	EngineNativeParallel
)

// ValidationPolicy selects how a Session screens incoming updates; see
// the internal/stream validator for the exact semantics of each rung.
type ValidationPolicy = stream.Policy

// Validation policies, from most permissive to most defensive.
const (
	// ValidationNone disables update screening (the default): callers
	// feeding trusted, well-formed streams pay nothing.
	ValidationNone = stream.PolicyNone
	// ValidationReject refuses any batch containing a malformed update
	// with a typed *stream.ValidationError.
	ValidationReject = stream.PolicyReject
	// ValidationClamp repairs NaN/Inf weights and drops out-of-range or
	// self-loop updates, counting each action.
	ValidationClamp = stream.PolicyClamp
	// ValidationQuarantine is ValidationClamp plus endpoint quarantine:
	// later updates touching a vertex a malformed update named are
	// diverted too.
	ValidationQuarantine = stream.PolicyQuarantine
)

// SessionOptions configures a Session.
type SessionOptions struct {
	// Engine selects the processing discipline (default
	// EngineTopologyDriven).
	Engine EngineKind
	// Cores is the logical partition width for the functional engines
	// and the worker count for the native engine (default: 8 for
	// functional, GOMAXPROCS for native).
	Cores int
	// Simulate attaches the scaled Table 1 machine so per-batch
	// Metrics include cycle counts and memory-system counters.
	// (Simulation is orders of magnitude slower than functional mode.)
	Simulate bool
	// Validation screens every batch (and the initial edge list) before
	// it reaches the graph builder. Default ValidationNone.
	Validation ValidationPolicy
	// MaxVertices caps valid vertex IDs when Validation is armed; 0
	// means "the vertex count the session was created with". Without a
	// cap a single wild update ID could grow the vertex set unboundedly.
	MaxVertices int
	// SelfCheck audits the local-fixpoint invariant after every batch
	// and transparently falls back to a full recompute on divergence
	// (recorded in RobustStats). One extra O(V+E) pass per batch.
	SelfCheck bool
}

// Session maintains a streaming graph and its converged algorithm states
// across batches. The graph representation and repair discipline live
// behind an engine backend selected by SessionOptions.Engine; the
// validation, robustness, and checkpoint machinery above it is
// backend-agnostic, so a checkpoint written under one engine restores
// under another.
type Session struct {
	opt SessionOptions
	a   algo.Algorithm
	eng engineBackend

	validator *stream.Validator
	rob       *stats.Collector

	lastCycles float64

	closed bool
}

// initRobustness sets up the session's validator and robustness counters
// from its options; called from every constructor path.
func (s *Session) initRobustness() {
	s.rob = stats.NewCollector()
	if s.opt.Validation != ValidationNone {
		maxV := s.opt.MaxVertices
		if maxV <= 0 {
			maxV = s.eng.numVertices()
		}
		s.validator = stream.NewValidator(s.opt.Validation, maxV, s.rob)
	}
}

// NewSession builds the initial graph from edges (nil for an empty graph
// over numVertices vertices) and converges the algorithm on it. When a
// validation policy is set, the initial edge list is screened under the
// same policy as streamed batches.
func NewSession(a Algorithm, edges []Edge, numVertices int, opt SessionOptions) (*Session, error) {
	if a == nil {
		return nil, fmt.Errorf("tdgraph: nil algorithm")
	}
	if opt.Cores <= 0 {
		opt.Cores = 8
	}
	if opt.Engine == EngineNativeParallel && opt.Simulate {
		return nil, fmt.Errorf("tdgraph: the native parallel engine cannot be simulated")
	}
	rob := stats.NewCollector()
	var validator *stream.Validator
	if opt.Validation != ValidationNone {
		maxV := opt.MaxVertices
		if maxV <= 0 {
			maxV = numVertices
		}
		validator = stream.NewValidator(opt.Validation, maxV, rob)
		asUpdates := make([]Update, len(edges))
		for i, e := range edges {
			asUpdates[i] = Update{Edge: e}
		}
		clean, err := validator.Sanitize(asUpdates)
		if err != nil {
			return nil, fmt.Errorf("tdgraph: initial edge list: %w", err)
		}
		if len(clean) != len(edges) {
			edges = make([]Edge, len(clean))
			for i, u := range clean {
				edges[i] = u.Edge
			}
		}
	}
	eng, err := newBackend(a, numVertices, edges, nil, opt)
	if err != nil {
		return nil, err
	}
	return &Session{opt: opt, a: a, eng: eng, validator: validator, rob: rob}, nil
}

// newBackend constructs the engine backend for opt. A nil warm converges
// the initial fixpoint from scratch; non-nil states (a restored
// checkpoint) are installed verbatim.
func newBackend(a Algorithm, numVertices int, edges []Edge, warm []float64, opt SessionOptions) (engineBackend, error) {
	if opt.Engine == EngineNativeParallel {
		return newNativeBackend(a, graph.NewStoreFromEdges(numVertices, edges), warm, opt)
	}
	b := graph.NewBuilderFromEdges(numVertices, edges)
	snap := b.Snapshot()
	sb := &simBackend{opt: opt, a: a, b: b, snap: snap, state: warm}
	if warm == nil {
		sb.state = algo.Reference(a, snap)
	} else if len(warm) != snap.NumVertices {
		return nil, fmt.Errorf("tdgraph: %d states for %d vertices", len(warm), snap.NumVertices)
	}
	return sb, nil
}

// Close releases engine resources — the native engine's persistent
// worker pool in particular. The session must not be used afterwards;
// safe to call more than once. Sessions on the functional or simulated
// engines hold no pooled resources, so Close is optional for them.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.eng.close()
}

// NumVertices returns the current vertex count (batches referencing new
// vertex IDs grow it).
func (s *Session) NumVertices() int { return s.eng.numVertices() }

// NumEdges returns the current edge count.
func (s *Session) NumEdges() int { return s.eng.numEdges() }

// State returns v's converged state (e.g. its distance, label, or rank).
func (s *Session) State(v VertexID) float64 { return s.eng.states()[v] }

// States returns the full converged state vector. The slice aliases the
// session and is invalidated by the next ApplyBatch.
func (s *Session) States() []float64 { return s.eng.states() }

// Graph returns the current immutable snapshot. Under the native engine
// this seals the mutable store on first call after a batch and caches
// the view until the next mutation.
func (s *Session) Graph() *Snapshot { return s.eng.snapshot() }

// Metrics returns the metric collector of the last ApplyBatch (nil before
// the first batch). Simulated sessions additionally expose cycle counts
// via LastCycles.
func (s *Session) Metrics() *stats.Collector { return s.eng.metrics() }

// LastCycles returns the simulated cycle count of the last batch (zero in
// functional mode).
func (s *Session) LastCycles() float64 { return s.lastCycles }

// PanicError is an engine or builder panic converted to an error at the
// public API boundary, with the operation and stack that produced it. The
// session it escaped from has already been healed (states recomputed from
// the current graph), so the caller may keep streaming.
type PanicError struct {
	Op    string // the operation that panicked, e.g. "ApplyBatch"
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("tdgraph: panic in %s: %v", e.Op, e.Value)
}

// ApplyBatch applies the updates to the graph and incrementally repairs
// the algorithm states. It returns what the batch changed; like States
// and Graph, the result's slices belong to the session and are valid
// until its next mutation — copy what must outlive that.
//
// Robustness: when a validation policy is set the batch is screened
// first (under ValidationReject a malformed batch returns a typed error
// and changes nothing). A panic anywhere in batch application or engine
// processing is converted to a *PanicError and the session self-heals by
// recomputing from the current graph — no panic escapes and the session
// stays usable. With SelfCheck set, a post-batch audit of the fixpoint
// invariant triggers a transparent recompute on divergence.
func (s *Session) ApplyBatch(batch []Update) (ApplyResult, error) {
	if s.validator != nil {
		clean, err := s.validator.Sanitize(batch)
		if err != nil {
			return ApplyResult{}, err
		}
		batch = clean
	}
	res, err := s.applyBatchProtected(batch)
	if err != nil {
		return res, err
	}
	if s.opt.SelfCheck {
		s.CheckAndRepair()
	}
	return res, nil
}

// applyBatchProtected runs the actual batch application under a recover
// barrier: any panic heals the session and comes back as a *PanicError.
func (s *Session) applyBatchProtected(batch []Update) (res ApplyResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Op: "ApplyBatch", Value: p, Stack: debug.Stack()}
			s.rob.Inc(stats.CtrPanicsRecovered)
			s.healAfterPanic()
		}
	}()

	var cycles float64
	res, cycles = s.eng.apply(batch)
	if s.opt.Simulate {
		s.lastCycles = cycles
	}
	return res, nil
}

// healAfterPanic restores the session to a consistent shape after a
// recovered panic: the backend's graph is still consistent (store and
// builder mutations are per-update, not partial), so the states are
// recomputed from scratch on it. The recompute runs the algorithm's own
// code — the very code that may have panicked — so it is protected too:
// if it panics again the states are merely padded to the graph's shape,
// keeping the session usable for inspection and checkpointing.
func (s *Session) healAfterPanic() {
	defer func() {
		if recover() != nil {
			s.eng.padStates()
		}
	}()
	s.eng.recompute()
	s.rob.Inc(stats.CtrDegradedRecomputes)
}

// Audit checks the local-fixpoint invariant of the current states
// without repairing anything. It returns the first divergent vertex and
// false on divergence, or (0, true) when the states are consistent.
func (s *Session) Audit() (VertexID, bool) {
	v, ok := engine.AuditStates(s.a, s.eng.snapshot(), s.eng.states())
	if !ok {
		s.rob.Inc(stats.CtrAuditDivergence)
	}
	return v, ok
}

// CheckAndRepair audits the current states and, on divergence, degrades
// gracefully: the states are recomputed from scratch on the current
// snapshot and the event is recorded in RobustStats. It reports whether a
// repair happened.
func (s *Session) CheckAndRepair() bool {
	if _, ok := s.Audit(); ok {
		return false
	}
	s.rob.Inc(stats.CtrDegradedRecomputes)
	s.Recompute()
	return true
}

// RobustStats returns the session's robustness counters: validation
// actions per class, recovered panics, audit divergences, and degraded
// recomputes. The collector accumulates over the session's lifetime.
func (s *Session) RobustStats() *stats.Collector { return s.rob }

// Quarantined returns the vertices currently quarantined by the
// ValidationQuarantine policy (nil otherwise).
func (s *Session) Quarantined() map[VertexID]struct{} {
	if s.validator == nil {
		return nil
	}
	return s.validator.Quarantined()
}

// Recompute converges the algorithm from scratch on the current graph
// and replaces the session states — useful to bound accumulated
// floating-point drift on very long accumulative streams, and in tests
// as the oracle.
func (s *Session) Recompute() {
	s.eng.recompute()
}
