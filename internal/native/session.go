package native

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"github.com/tdgraph/tdgraph/internal/algo"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// Session is the stateful incremental native engine: it owns a mutable
// graph.Store plus flat SoA per-vertex arrays and repairs the fixpoint
// after each batch instead of recomputing it — the production apply
// path, for both algorithm families.
//
// Concurrency model: batch application and repair are serial (batch-sized
// work); propagation fans out over a persistent worker pool. Only the
// serial repair and the per-vertex visit differ by family. Monotonic:
// per-worker LIFO worklists with work stealing and no global frontier
// barrier; vertex state and parent change together under a per-vertex
// CAS spinlock, so the dependency forest can never disagree with the
// states, and a queued flag keeps a vertex in at most one worklist.
// Flag, lock and parent share one 32-bit word per vertex (meta), so a
// session holds at most 2^30 − 1 vertices; growing past that panics.
// Accumulative: frontier rounds, whose visits claim a vertex's
// pending delta, apply it and add its damped shares to the
// out-neighbours' pending deltas with atomic float adds.
//
// The monotonic fixpoint is unique and the float operations are the same
// as the reference oracle's, so final states are Float64bits-identical to
// algo.Reference on the sealed graph regardless of worker count or
// propagation order. Accumulative states agree with it up to the deltas
// left pending below Epsilon.
type Session struct {
	mono    algo.MonotonicAlgo // exactly one of mono and acc is set
	acc     algo.AccumulativeAlgo
	store   *graph.Store
	workers int

	// SoA per-vertex arrays. states is accessed atomically during
	// propagation and plainly during the serial phases (the pool is
	// quiesced, with happens-before through the kick/done channels).
	states []uint64 // float64 bit patterns
	// One word per vertex: metaQueued while it sits in some worklist or
	// frontier and, monotonic only, metaLock (the spinlock over its state
	// and parent) and its dependency-forest parent + 1 in metaParent (0:
	// self-supported). An accumulative word holds only metaQueued.
	meta []uint32

	// Accumulative only. Every unit of a vertex's state has been sent
	// along its out-edges; delta is what it received and has not yet
	// applied.
	delta []uint64  // float64 bit patterns
	outW  []float64 // total out-weight, for the algorithm's Share

	pending  int64 // worklist entries across all queues
	queues   []workQueue
	stealBuf [][]graph.VertexID

	// Frontier rounds (ApplyBatchRounds): what the repair and the visits
	// queue is appended to next. At most one entry per vertex, so both
	// are sized to the vertex set (from the first rounds batch) and never
	// grow within a batch.
	rounds      bool
	frontier    []graph.VertexID
	next        []graph.VertexID
	frontierLen int
	nextLen     int64

	// Persistent pool: workers 1..n-1 park on kick between batches;
	// worker 0 is the calling goroutine.
	kick   []chan struct{}
	done   chan struct{}
	closed bool
	// panicked holds the first panic of a pool pass, for runPool to
	// re-raise on the caller once every worker has joined.
	panicked atomic.Pointer[any]

	// Serial repair scratch, reused across batches.
	tagged    []graph.VertexID
	gatherVal []float64
	seedIdx   int
	srcs      []graph.VertexID // the batch's distinct sources (accumulative)
	preEnd    []int            // end of srcs[i]'s pre-batch row in preNbr
	preNbr    []graph.VertexID
	preW      []float32

	// Check's scratch, allocated on its first call: chain marks
	// (monotonic) or expected states (accumulative), one per vertex.
	chkMark []uint8
	chkWant []float64

	// Counters, merged into a Collector by Metrics.
	ctrVisits, ctrEdges, ctrSteals, ctrTags, ctrResets uint64
}

// NewSession bootstraps a session over st, computing the initial fixpoint
// (and, for a monotonic algorithm, the dependency forest) from scratch —
// the one-time O(V+E) cost — over a copy of st's rows. It panics when a
// implements neither algo.MonotonicAlgo nor algo.AccumulativeAlgo.
func NewSession(a algo.Algorithm, st *graph.Store, cfg Config) *Session {
	s, err := NewSessionFromRows(a, st, st.Rows(), nil, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewSessionFromRows bootstraps a session over st from rows, which must
// be st's out-edges with each row in st's iteration order — the rows
// graph.StartStoreFromEdges and StartStoreFromSnapshot return, or
// st.Rows(). The bootstrap reads no store, so st may still be loading.
// A nil keep computes the fixpoint from scratch. Non-nil keep restores
// checkpointed states verbatim (bit-for-bit, the recovery guarantee);
// they must be the converged fixpoint for st's graph. A monotonic
// dependency forest is rebuilt by replaying the from-scratch propagation
// either way — parents must be recorded at improvement time, never
// reconstructed by value matching (see algo.ReferenceWithParents).
func NewSessionFromRows(a algo.Algorithm, st *graph.Store, rows *graph.Rows, keep []float64, cfg Config) (*Session, error) {
	if keep != nil && len(keep) != rows.NumVertices() {
		return nil, fmt.Errorf("native: %d states for %d vertices", len(keep), rows.NumVertices())
	}
	w := cfg.workers()
	s := &Session{
		store:    st,
		workers:  w,
		queues:   make([]workQueue, w),
		stealBuf: make([][]graph.VertexID, w),
		kick:     make([]chan struct{}, w),
		done:     make(chan struct{}, w),
	}
	switch alg := a.(type) {
	case algo.MonotonicAlgo:
		s.mono = alg
	case algo.AccumulativeAlgo:
		s.acc = alg
	default:
		return nil, fmt.Errorf("native: %s implements neither MonotonicAlgo nor AccumulativeAlgo", a.Name())
	}
	for i := 1; i < w; i++ {
		s.kick[i] = make(chan struct{}, 1)
		go s.workerLoop(i)
	}
	s.bootstrap(rows, keep)
	return s, nil
}

func (s *Session) workerLoop(wi int) {
	for range s.kick[wi] {
		s.work(wi)
		s.done <- struct{}{}
	}
}

// work runs worker wi's share of one pool pass. The first panic on any
// worker is kept for runPool and forces pending far below zero, so the
// peers unwind, even one waiting for a lock the panic left held. The
// defer lives here, not in workerLoop's loop, so a pass allocates
// nothing.
func (s *Session) work(wi int) {
	defer func() {
		if r := recover(); r != nil {
			s.abort(r)
		}
	}()
	if s.rounds {
		s.runRound(wi)
	} else {
		s.runWorker(wi)
	}
}

// Close parks the worker pool permanently. The session must be quiescent
// (no ApplyBatch in flight). Safe to call more than once.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for i := 1; i < s.workers; i++ {
		close(s.kick[i])
	}
}

// bootstrap computes the from-scratch fixpoint over rows, the store's
// out-edges in its iteration order, or installs keep verbatim. It reads
// no store, so the cold start runs it while both of the store's
// directions are still being placed; keep it that way.
func (s *Session) bootstrap(rows *graph.Rows, keep []float64) {
	if s.acc != nil {
		s.bootstrapAcc(rows, keep)
		return
	}
	s.bootstrapMono(rows, keep)
}

// bootstrapMono computes the monotonic fixpoint and parent forest by
// serial FIFO worklist propagation (the same discipline as
// algo.ReferenceWithParents, off a CSR that need not be sorted). When
// keep is non-nil those states are installed verbatim instead of the
// replayed values — for a converged checkpoint the two are
// bit-identical, but the checkpoint bytes are authoritative. Every meta
// word is zero on entry: a new session's, or cleared by Recompute.
func (s *Session) bootstrapMono(rows *graph.Rows, keep []float64) {
	n := rows.NumVertices()
	s.growTo(n)
	vals := make([]float64, n)
	inQ := make([]bool, n)
	// A FIFO ring of n slots: a vertex is queued at most once at a time.
	queue := make([]graph.VertexID, n)
	for v := 0; v < n; v++ {
		vals[v] = s.mono.InitialValue(graph.VertexID(v))
		queue[v] = graph.VertexID(v)
		inQ[v] = true
	}
	for head, size := 0, n; size > 0; {
		v := queue[head]
		head, size = (head+1)%n, size-1
		inQ[v] = false
		ns, ws := rows.Row(v)
		for i, u := range ns {
			cand := s.mono.Propagate(vals[v], ws[i])
			if s.mono.Better(cand, vals[u]) {
				vals[u] = cand
				s.meta[u] = uint32(v) + 1 // zero on entry, no bit but the parent's is set
				if !inQ[u] {
					inQ[u] = true
					queue[(head+size)%n] = u
					size++
				}
			}
		}
	}
	if keep != nil {
		vals = keep
	}
	for v := range vals {
		s.states[v] = math.Float64bits(vals[v])
	}
}

// growTo extends the family's per-vertex arrays to n vertices, each in
// one step. A new vertex starts at its initial value (monotonic) or its
// base (accumulative): with no out-edge yet, it has sent nothing.
func (s *Session) growTo(n int) {
	old := len(s.states)
	if n <= old {
		return
	}
	checkVertexLimit(n)
	s.states, s.meta = extend(s.states, n), extend(s.meta, n)
	if s.acc != nil || s.next != nil {
		s.frontier, s.next = extend(s.frontier, n), extend(s.next, n)
	}
	if s.acc != nil {
		s.delta, s.outW = extend(s.delta, n), extend(s.outW, n)
		for v := old; v < n; v++ {
			s.states[v] = math.Float64bits(s.acc.Base(graph.VertexID(v)))
		}
		return
	}
	for v := old; v < n; v++ {
		s.states[v] = math.Float64bits(s.mono.InitialValue(graph.VertexID(v)))
	}
}

// The bits of a vertex's meta word. A zeroed word is an unqueued,
// unlocked, self-supported vertex.
const (
	metaQueued  = 1 << 31
	metaLock    = 1 << 30
	metaParent  = metaLock - 1
	maxVertices = metaParent // parent + 1 must fit metaParent
)

// checkVertexLimit panics when n vertices do not fit the session.
func checkVertexLimit(n int) {
	if n > maxVertices {
		panic(fmt.Sprintf("native: %d vertices exceed the session's limit of %d (2^30 − 1)", n, maxVertices))
	}
}

// extend zero-extends s to length n > len(s), growing its backing array
// at most once instead of element by element.
func extend[T any](s []T, n int) []T {
	return append(s, make([]T, n-len(s))...)
}

// NumVertices returns the session's vertex count.
func (s *Session) NumVertices() int { return len(s.states) }

// Store exposes the owned mutable graph (read-only use: sealing,
// checkpoints). Mutating it behind the session's back voids the repair
// invariants.
func (s *Session) Store() *graph.Store { return s.store }

// State returns v's current value.
func (s *Session) State(v graph.VertexID) float64 {
	return math.Float64frombits(atomic.LoadUint64(&s.states[v]))
}

// StatesCopy returns a fresh copy of the state vector.
func (s *Session) StatesCopy() []float64 {
	return s.StatesInto(nil)
}

// StatesInto fills dst (grown as needed) with the state vector and
// returns it — the allocation-free accessor for steady-state callers.
func (s *Session) StatesInto(dst []float64) []float64 {
	if cap(dst) < len(s.states) {
		dst = make([]float64, len(s.states))
	}
	dst = dst[:len(s.states)]
	for i := range s.states {
		dst[i] = math.Float64frombits(s.states[i])
	}
	return dst
}

// ApplyBatch applies one update batch to the store, repairs the fixpoint
// incrementally, and propagates to convergence: monotonic work over
// per-worker LIFO worklists with stealing, accumulative deltas in
// frontier rounds (ApplyBatchRounds). The returned result's slices
// alias reusable session buffers — copy before the next batch if
// retained. Not safe for concurrent use. Warm, a monotonic batch
// allocates nothing (TestSessionSteadyStateZeroAllocs).
func (s *Session) ApplyBatch(batch []graph.Update) graph.ApplyResult {
	if s.acc != nil {
		return s.ApplyBatchRounds(batch)
	}
	s.rounds = false
	res := s.store.Apply(batch)
	s.growTo(s.store.NumVertices())
	s.repairAndSeed(res)
	if atomic.LoadInt64(&s.pending) > 0 {
		s.runPool()
	}
	return res
}

// ApplyBatchRounds is ApplyBatch in Ligra-o's order: frontier rounds,
// each worker taking a contiguous shard, a barrier between rounds.
// Store, repair, dependency forest and final states are ApplyBatch's;
// only the order, and so the work, differ. It is the accumulative
// order: a round gathers all the deltas a vertex receives into one
// visit, where worklists send partial waves apart.
func (s *Session) ApplyBatchRounds(batch []graph.Update) graph.ApplyResult {
	if s.next == nil { // a monotonic session's first rounds batch
		s.frontier, s.next = make([]graph.VertexID, len(s.states)), make([]graph.VertexID, len(s.states))
	}
	s.rounds = true // the repair seeds the first frontier
	if s.acc != nil {
		s.capturePreRows(batch)
	}
	res := s.store.Apply(batch)
	s.growTo(s.store.NumVertices())
	if s.acc != nil {
		s.repairAcc()
	} else {
		s.repairAndSeed(res)
	}
	for s.nextLen > 0 {
		s.frontier, s.next = s.next, s.frontier
		s.frontierLen, s.nextLen = int(s.nextLen), 0
		for _, v := range s.frontier[:s.frontierLen] {
			s.meta[v] &^= metaQueued // from here it marks the next frontier
		}
		s.runPool()
	}
	return res
}

// Orders lists the Session's two propagation orders, named by Fig 14's arms.
var Orders = []struct {
	Name  string
	Apply func(*Session, []graph.Update) graph.ApplyResult
}{{"Ligra-o", (*Session).ApplyBatchRounds}, {"TDGraph-S-without", (*Session).ApplyBatch}}

// repairAndSeed performs the serial, batch-sized monotonic repair —
// tag / reset / re-gather for deletions, direct relaxation for additions
// — and seeds the worklists with every vertex whose state changed.
func (s *Session) repairAndSeed(res graph.ApplyResult) {
	s.tagged = s.tagged[:0]
	// Tag direct victims: deleted edges that carried the parent link.
	// Tagging cuts a victim's link at once — self-supported, its reset
	// value — so no later check can match it and tag it twice.
	for _, e := range res.DeletedEdges {
		if s.meta[e.Dst]&metaParent == uint32(e.Src)+1 {
			s.setParent(e.Dst, 0)
			s.tagged = append(s.tagged, e.Dst)
		}
	}
	// Transitive closure over the dependency forest: anything whose
	// support chain passes through a victim is a victim.
	for i := 0; i < len(s.tagged); i++ {
		x := s.tagged[i]
		for r, left := 0, s.store.OutDegree(x); left > 0; r++ {
			ns, _ := s.store.OutEdges(x, r)
			left -= len(ns)
			for _, w := range ns {
				if s.meta[w]&metaParent == uint32(x)+1 {
					s.setParent(w, 0)
					s.tagged = append(s.tagged, w)
				}
			}
		}
	}
	s.ctrTags += uint64(len(s.tagged))
	// Reset the whole region first, then gather — every re-gather must
	// observe the post-reset snapshot, or two tagged vertices could keep
	// each other alive through values that are both about to be reset;
	// parents are not read here, so only states wait in gatherVal.
	for _, v := range s.tagged {
		s.states[v] = math.Float64bits(s.mono.InitialValue(v))
	}
	s.ctrResets += uint64(len(s.tagged))
	s.gatherVal = s.gatherVal[:0]
	for _, v := range s.tagged {
		best, bestPar := s.mono.InitialValue(v), uint32(0)
		for r, left := 0, s.store.InDegree(v); left > 0; r++ {
			ns := s.store.InEdges(v, r)
			left -= len(ns)
			for _, u := range ns {
				w, _ := s.store.EdgeWeight(u, v) // the mirror holds no weights
				cand := s.mono.Propagate(math.Float64frombits(s.states[u]), w)
				if s.mono.Better(cand, best) {
					best, bestPar = cand, uint32(u)+1
				}
			}
		}
		s.gatherVal = append(s.gatherVal, best)
		s.setParent(v, bestPar)
	}
	for i, v := range s.tagged {
		s.states[v] = math.Float64bits(s.gatherVal[i])
		s.activate(v)
	}
	// Additions relax directly.
	for _, e := range res.AddedEdges {
		cand := s.mono.Propagate(math.Float64frombits(s.states[e.Src]), e.Weight)
		if s.mono.Better(cand, math.Float64frombits(s.states[e.Dst])) {
			s.states[e.Dst] = math.Float64bits(cand)
			s.setParent(e.Dst, uint32(e.Src)+1)
			s.activate(e.Dst)
		}
	}
}

// setParent sets v's parent + 1 (0: self-supported) in a serial phase.
func (s *Session) setParent(v graph.VertexID, p uint32) { s.meta[v] = s.meta[v]&^metaParent | p }

// activate seeds v, unless already queued, into the first frontier in
// rounds mode, else round-robin into the workers' worklists. It runs in
// the serial phases only.
func (s *Session) activate(v graph.VertexID) {
	if s.meta[v]&metaQueued != 0 {
		return
	}
	s.meta[v] |= metaQueued
	if s.rounds {
		s.next[atomic.AddInt64(&s.nextLen, 1)-1] = v
		return
	}
	atomic.AddInt64(&s.pending, 1)
	s.queues[s.seedIdx].push(v)
	if s.seedIdx++; s.seedIdx == s.workers {
		s.seedIdx = 0
	}
}

// abort unwinds the pool after panic r on a worker.
func (s *Session) abort(r any) {
	atomic.StoreInt64(&s.pending, math.MinInt64/2)
	s.panicked.CompareAndSwap(nil, &r)
}

// runPool runs one pass of the pool — a worklist drain, or one frontier
// round — with worker 0 on the calling goroutine. Panic-safe: a panic on
// any worker unwinds every worker (work), and after the join it
// continues on the caller — the pool is always quiescent when the panic
// reaches the caller, so a heal can safely Recompute. It allocates
// nothing (TestSessionSteadyStateZeroAllocs).
func (s *Session) runPool() {
	for i := 1; i < s.workers; i++ {
		s.kick[i] <- struct{}{}
	}
	s.work(0)
	for i := 1; i < s.workers; i++ {
		<-s.done
	}
	if r := s.panicked.Swap(nil); r != nil {
		s.pending = 0
		panic(*r)
	}
}

// runWorker drains monotonic worklists until the global pending count
// hits zero: pop own queue (LIFO), steal half a victim's queue when
// empty, spin-yield when everything looks empty but peers still hold
// work.
func (s *Session) runWorker(wi int) {
	q := &s.queues[wi]
	buf := s.stealBuf[wi]
	var visits, edges, steals uint64
	for {
		v, ok := q.pop()
		if !ok {
			for off := 1; off < s.workers && !ok; off++ {
				buf = s.queues[(wi+off)%s.workers].stealInto(buf[:0])
				if len(buf) > 0 {
					steals += uint64(len(buf))
					for _, u := range buf[1:] {
						q.push(u)
					}
					v, ok = buf[0], true
				}
			}
			if !ok {
				// <= 0, not == 0: runPool unwinds a panic with pending
				// far below zero.
				if atomic.LoadInt64(&s.pending) <= 0 {
					break
				}
				runtime.Gosched()
				continue
			}
		}
		// Ordering matters: clear the queued bit (only) before loading the
		// state. An improver stores the state, then sets the bit as it
		// releases the lock, so either this load sees its value or it sees
		// the cleared bit and re-queues: no improvement is left behind.
		for m := &s.meta[v]; ; {
			if old := atomic.LoadUint32(m); atomic.CompareAndSwapUint32(m, old, old&^metaQueued) {
				break
			}
		}
		sv := math.Float64frombits(atomic.LoadUint64(&s.states[v]))
		deg := s.store.OutDegree(v)
		visits++
		edges += uint64(deg)
		for r, left := 0, deg; left > 0; r++ {
			ns, ws := s.store.OutEdges(v, r)
			left -= len(ns)
			for i, u := range ns {
				if s.improve(u, s.mono.Propagate(sv, ws[i]), v) {
					atomic.AddInt64(&s.pending, 1)
					q.push(u)
				}
			}
		}
		atomic.AddInt64(&s.pending, -1)
	}
	s.stealBuf[wi] = buf
	atomic.AddUint64(&s.ctrVisits, visits)
	atomic.AddUint64(&s.ctrEdges, edges)
	atomic.AddUint64(&s.ctrSteals, steals)
}

// runRound visits worker wi's contiguous shard of the frontier once;
// what the visits queue is the next round's frontier.
func (s *Session) runRound(wi int) {
	n := s.frontierLen
	var visits, edges uint64
	for _, v := range s.frontier[wi*n/s.workers : (wi+1)*n/s.workers] {
		if s.acc != nil {
			if deg, ok := s.visitAcc(v); ok {
				visits++
				edges += uint64(deg)
			}
			continue
		}
		sv := math.Float64frombits(atomic.LoadUint64(&s.states[v]))
		deg := s.store.OutDegree(v)
		visits++
		edges += uint64(deg)
		for r, left := 0, deg; left > 0; r++ {
			ns, ws := s.store.OutEdges(v, r)
			left -= len(ns)
			for i, u := range ns {
				if s.improve(u, s.mono.Propagate(sv, ws[i]), v) {
					s.next[atomic.AddInt64(&s.nextLen, 1)-1] = u
				}
			}
		}
	}
	atomic.AddUint64(&s.ctrVisits, visits)
	atomic.AddUint64(&s.ctrEdges, edges)
}

// improve applies cand to u if it is better, recording the supporting
// parent with the state — both under u's spinlock, released in the same
// CAS that writes the parent, so the dependency forest always matches
// the value it justifies. It reports whether u improved and was not
// queued: the caller queues it.
func (s *Session) improve(u graph.VertexID, cand float64, from graph.VertexID) bool {
	// Optimistic unlocked reject: most candidates lose.
	if !s.mono.Better(cand, math.Float64frombits(atomic.LoadUint64(&s.states[u]))) {
		return false
	}
	m := &s.meta[u]
	for { // the CASes retry when the queued bit flips meanwhile
		if old := atomic.LoadUint32(m); old&metaLock == 0 && atomic.CompareAndSwapUint32(m, old, old|metaLock) {
			break
		} else if atomic.LoadInt64(&s.pending) < 0 {
			return false // runPool is unwinding a panic, perhaps the holder's
		}
		runtime.Gosched()
	}
	ok := s.mono.Better(cand, math.Float64frombits(atomic.LoadUint64(&s.states[u])))
	if ok {
		atomic.StoreUint64(&s.states[u], math.Float64bits(cand))
	}
	for {
		old := atomic.LoadUint32(m)
		next := old &^ metaLock
		if ok {
			next = next&^metaParent | metaQueued | (uint32(from) + 1)
		}
		if atomic.CompareAndSwapUint32(m, old, next) {
			return ok && old&metaQueued == 0
		}
	}
}

// Recompute rebuilds the states (and any dependency forest or pending
// deltas) from scratch on the current graph — the session's self-heal
// path. It also discards any worklist wreckage a panic may have left
// (seeded entries that were never propagated), so a healed session
// starts the next batch clean. Must not run concurrently with
// ApplyBatch.
func (s *Session) Recompute() {
	for i := range s.queues {
		s.queues[i].reset()
	}
	clear(s.meta) // a panic may have left a lock held
	s.pending, s.nextLen = 0, 0
	s.bootstrap(s.store.Rows(), nil)
}

// Metrics snapshots the session's counters into a fresh collector.
func (s *Session) Metrics() *stats.Collector {
	c := stats.NewCollector()
	c.Set(stats.CtrPropagationVisits, atomic.LoadUint64(&s.ctrVisits))
	c.Set(stats.CtrEdgesProcessed, atomic.LoadUint64(&s.ctrEdges))
	c.Set(stats.CtrWorkSteals, atomic.LoadUint64(&s.ctrSteals))
	c.Set(stats.CtrTagPropagations, atomic.LoadUint64(&s.ctrTags))
	c.Set(stats.CtrResets, atomic.LoadUint64(&s.ctrResets))
	return c
}
