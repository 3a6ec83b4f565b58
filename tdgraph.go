// Package tdgraph is the public API of the TDGraph streaming-graph
// library: incremental graph algorithms over batched edge updates, kept
// converged by a native parallel engine that applies each batch to a
// mutable graph store in place.
//
// The central type is Session: it owns a mutable graph, keeps the
// algorithm's states converged across update batches, and processes each
// batch incrementally:
//
//	s, _ := tdgraph.NewSession(tdgraph.NewSSSP(0), edges, numVertices, tdgraph.SessionOptions{})
//	defer s.Close()
//	res, _ := s.ApplyBatch([]tdgraph.Update{{Edge: tdgraph.Edge{Src: 1, Dst: 2, Weight: 3}}})
//	dist := s.State(2)
//
// The paper's machine — the topology-driven engine of Zhao et al. (ISCA
// 2022) on the simulated Table 1 system, and the baselines it is
// measured against — lives in the internal packages and is driven by
// cmd/tdgraph-bench, cmd/tdgraph-run and the examples.
package tdgraph

import (
	"bufio"
	"fmt"
	"runtime/debug"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/native"
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

// EngineKind is the type of the deprecated SessionOptions.Engine.
//
// Deprecated: a Session has one engine. See SessionOptions.Engine.
type EngineKind int

// EngineNativeParallel names the one engine a Session runs.
//
// Deprecated: it is the only engine, so naming it changes nothing. It
// stays only because the serving benchmark (benchmark/cluster.go), which
// is frozen, sets it.
const EngineNativeParallel EngineKind = 2

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
	// Engine is ignored.
	//
	// Deprecated: a Session has one engine. The field stays only because
	// the serving benchmark (benchmark/cluster.go), which is frozen, sets
	// it to EngineNativeParallel.
	Engine EngineKind
	// Cores is the native engine's worker count (default 8).
	Cores int
	// Validation screens every batch (and the initial edge list) before
	// it reaches the graph. Default ValidationNone.
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
// across batches. It applies each batch to a mutable hybrid graph store
// in place (O(degree) per update, no CSR rebuild) and repairs the states
// with the native parallel engine; the validation, robustness and
// checkpoint machinery sits above that one engine. A Session holds a
// worker pool: Close it when done.
//
// Every view derived from the engine — the sealed snapshot, the state
// mirror and the counter snapshot — follows one rule: stale after a
// mutation, rebuilt by the first reader. A caller that applies batches
// and reads nothing (serve.Pipeline) pays for none of them.
type Session struct {
	opt   SessionOptions
	a     algo.Algorithm
	store *graph.Store
	sess  *native.Session // owns the store's state arrays

	sealed *graph.Snapshot  // lazy immutable view, nil after mutation
	state  []float64        // mirror of sess's states, nil until States is read
	col    *stats.Collector // snapshot of sess's counters, nil until the first mutation
	stale  bool             // sess mutated since state and col were filled

	validator *stream.Validator
	rob       *stats.Collector

	// ckptBuf is the checkpoint file buffer, reused by every save; the
	// graph and state payloads are encoded straight into it.
	ckptBuf *bufio.Writer

	closed bool
}

// newSession runs the engine's bootstrap over st with opt.Cores workers
// (8 when not positive). A nil warm computes the fixpoint from scratch;
// non-nil states (a restored checkpoint) are kept verbatim and must be
// converged for st's graph. st may still be loading
// (graph.StartStoreFromEdges or StartStoreFromSnapshot): the bootstrap
// reads no store, only rows, st's out-edges from that loader, and so
// runs while both directions are placed. loaded, the load's wait, is
// called before st is read and before returning.
func newSession(a Algorithm, st *graph.Store, rows *graph.Rows, loaded func(), warm []float64, opt SessionOptions) (*Session, error) {
	defer loaded()
	workers := opt.Cores
	if workers <= 0 {
		workers = 8
	}
	sess, err := native.NewSessionFromRows(a, st, rows, warm, native.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &Session{opt: opt, a: a, store: st, sess: sess}, nil
}

// newValidator returns opt's ingestion validator over numVertices
// vertices (MaxVertices when set), counting into rob; nil without a
// validation policy.
func newValidator(opt SessionOptions, numVertices int, rob *stats.Collector) *stream.Validator {
	if opt.Validation == ValidationNone {
		return nil
	}
	maxV := opt.MaxVertices
	if maxV <= 0 {
		maxV = numVertices
	}
	return stream.NewValidator(opt.Validation, maxV, rob)
}

// NewSession builds the initial graph from edges (nil for an empty graph
// over numVertices vertices) and converges the algorithm on it. When a
// validation policy is set, the initial edge list is screened under the
// same policy as streamed batches.
func NewSession(a Algorithm, edges []Edge, numVertices int, opt SessionOptions) (*Session, error) {
	if a == nil {
		return nil, fmt.Errorf("tdgraph: nil algorithm")
	}
	rob := stats.NewCollector()
	validator := newValidator(opt, numVertices, rob)
	if validator != nil {
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
	st, rows, loaded := graph.StartStoreFromEdges(numVertices, edges)
	s, err := newSession(a, st, rows, loaded, nil, opt)
	if err != nil {
		return nil, err
	}
	s.validator, s.rob = validator, rob
	return s, nil
}

// Close parks the engine's worker pool. The session must not be used
// afterwards; safe to call more than once.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.sess.Close()
}

// NumVertices returns the current vertex count (batches referencing new
// vertex IDs grow it).
func (s *Session) NumVertices() int { return s.store.NumVertices() }

// NumEdges returns the current edge count.
func (s *Session) NumEdges() int { return s.store.NumEdges() }

// State returns v's converged state (e.g. its distance, label, or rank).
// While no state mirror is held it reads the engine's own, so reading
// one value never copies all of them.
func (s *Session) State(v VertexID) float64 {
	if s.state == nil {
		return s.sess.State(v)
	}
	return s.States()[v]
}

// States returns the full converged state vector. The slice aliases the
// session and is invalidated by the next ApplyBatch.
func (s *Session) States() []float64 {
	s.refresh()
	if s.state == nil {
		s.state = s.sess.StatesCopy()
	}
	return s.state
}

// refresh refills the derived views if a mutation outdated them: the
// counter snapshot, and the state mirror once a reader has built it.
// The mirror's buffer is reused, so a slice handed out by States stays
// valid exactly until the next mutation's first read.
func (s *Session) refresh() {
	if s.stale {
		if s.state != nil {
			s.state = s.sess.StatesInto(s.state)
		}
		s.col = s.sess.Metrics()
		s.stale = false
	}
}

// stateView returns the state count and a reader of state v: what a
// checkpoint save streams. It reads the engine's own states while no
// mirror exists, so a save never builds one.
func (s *Session) stateView() (int, func(int) float64) {
	if s.state == nil {
		return s.sess.NumVertices(), func(v int) float64 { return s.sess.State(graph.VertexID(v)) }
	}
	state := s.States()
	return len(state), func(v int) float64 { return state[v] }
}

// Graph returns the current immutable snapshot. It seals the mutable
// store on the first call after a batch and caches the view until the
// next mutation.
func (s *Session) Graph() *Snapshot {
	if s.sealed == nil {
		s.sealed = s.store.Seal()
	}
	return s.sealed
}

// Metrics returns the engine's propagation counters, accumulated over
// the session's batches (nil before the first batch).
func (s *Session) Metrics() *stats.Collector {
	s.refresh()
	return s.col
}

// PanicError is an engine or store panic converted to an error at the
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
// The views are marked stale before the engine runs, so a panic
// mid-batch still leaves them stale for healAfterPanic.
func (s *Session) applyBatchProtected(batch []Update) (res ApplyResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Op: "ApplyBatch", Value: p, Stack: debug.Stack()}
			s.rob.Inc(stats.CtrPanicsRecovered)
			s.healAfterPanic()
		}
	}()

	s.sealed, s.stale = nil, true
	return s.sess.ApplyBatch(batch), nil
}

// healAfterPanic restores the session to a consistent shape after a
// recovered panic: the store is still consistent (its mutations are
// per-update, not partial), so the states are recomputed from scratch on
// it. The recompute runs the algorithm's own code — the very code that
// may have panicked — so it is protected too: if it panics again the
// states are merely padded to the graph's shape, keeping the session
// usable for inspection and checkpointing.
func (s *Session) healAfterPanic() {
	defer func() {
		if recover() != nil {
			s.padStates()
		}
	}()
	s.Recompute()
	s.rob.Inc(stats.CtrDegradedRecomputes)
}

// padStates forces the state mirror to the graph's vertex count, zero-
// extending or truncating it, without running any algorithm code: the
// last-resort heal when Recompute itself panics.
func (s *Session) padStates() {
	state, n := s.States(), s.store.NumVertices()
	if len(state) > n {
		state = state[:n]
	}
	for len(state) < n {
		state = append(state, 0)
	}
	s.state = state
}

// Audit checks the local-fixpoint invariant of the current states
// without repairing anything. It returns the first divergent vertex and
// false on divergence, or (0, true) when the states are consistent.
func (s *Session) Audit() (VertexID, bool) {
	v, ok := algo.AuditStates(s.a, s.Graph(), s.States())
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
// as the oracle. It may panic (algorithm code).
func (s *Session) Recompute() {
	s.stale = true
	s.sess.Recompute()
}
