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
// graph.Store plus flat SoA per-vertex arrays (state bits, dependency
// parent, propagation counters) and repairs the monotonic fixpoint after
// each batch instead of recomputing it — the production apply path.
//
// Concurrency model: batch application and repair are serial (batch-sized
// work); propagation fans out over a persistent worker pool with
// per-worker worklists and work stealing. Vertex state, parent, and
// improvement counter are updated together under a per-vertex CAS
// spinlock so the dependency forest can never disagree with the states;
// readers use plain atomic state loads. Per-vertex propagation counters —
// the paper's TDTU synchronisation in software — let a worker skip a
// dequeued vertex whose latest improvement was already propagated by a
// peer, eliminating redundant re-propagations without a global frontier
// barrier.
//
// The monotonic fixpoint is unique and the float operations are the same
// as the reference oracle's, so final states are Float64bits-identical to
// algo.Reference on the sealed graph regardless of worker count or
// propagation order.
type Session struct {
	alg     algo.MonotonicAlgo
	store   *graph.Store
	workers int

	// SoA per-vertex arrays. states is accessed atomically during
	// propagation and plainly during the serial phases (the pool is
	// quiesced, with happens-before through the kick/done channels).
	states     []uint64 // float64 bit patterns
	parent     []int32  // dependency forest (-1 = self-supported)
	vlock      []uint32 // per-vertex spinlock over (state, parent, improveVer)
	queued     []uint32 // 1 while sitting in some worklist
	improveVer []uint32 // bumped on every improvement (software TDTU)
	propVer    []uint32 // last improveVer fully propagated

	pending  int64 // worklist entries across all queues
	queues   []workQueue
	stealBuf [][]graph.VertexID

	// Persistent pool: workers 1..n-1 park on kick between batches;
	// worker 0 is the calling goroutine.
	kick   []chan struct{}
	done   chan struct{}
	closed bool

	// Serial repair scratch, reused across batches.
	tagged    []graph.VertexID
	gatherVal []float64
	gatherPar []int32
	seedIdx   int

	// Counters, merged into a Collector by Metrics.
	ctrVisits, ctrEdges, ctrSkips, ctrSteals, ctrTags, ctrResets uint64
}

// NewSession bootstraps a session over st, computing the initial fixpoint
// and dependency forest from scratch (the one-time O(V+E) cost) over a
// copy of st's rows.
func NewSession(a algo.MonotonicAlgo, st *graph.Store, cfg Config) *Session {
	s, _ := NewSessionFromRows(a, st, st.Rows(), nil, cfg) // fails only on a keep of the wrong length
	return s
}

// NewSessionFromRows bootstraps a session over st from rows, which must
// be st's out-edges with each row in st's iteration order — the rows
// graph.StartStoreFromEdges and StartStoreFromSnapshot return, or
// st.Rows(). The bootstrap reads no store, so st may still be loading.
// A nil keep computes the fixpoint from scratch. Non-nil keep restores
// checkpointed states verbatim (bit-for-bit, the recovery guarantee);
// they must be the converged fixpoint for st's graph. The dependency
// forest is rebuilt by replaying the from-scratch propagation either way
// — parents must be recorded at improvement time, never reconstructed by
// value matching (see algo.ReferenceWithParents).
func NewSessionFromRows(a algo.MonotonicAlgo, st *graph.Store, rows *graph.Rows, keep []float64, cfg Config) (*Session, error) {
	if keep != nil && len(keep) != rows.NumVertices() {
		return nil, fmt.Errorf("native: %d states for %d vertices", len(keep), rows.NumVertices())
	}
	s := newSessionShell(a, st, cfg)
	s.bootstrap(rows, keep)
	return s, nil
}

// newSessionWithParents wires a session from already-known states and
// parents (the Fig-14 wrapper path, where the caller replayed the old
// graph itself). Both slices must cover st's vertex set.
func newSessionWithParents(a algo.MonotonicAlgo, st *graph.Store, vals []float64, parents []int32, cfg Config) *Session {
	s := newSessionShell(a, st, cfg)
	s.growTo(st.NumVertices())
	for v, x := range vals {
		s.states[v] = math.Float64bits(x)
	}
	copy(s.parent, parents)
	return s
}

func newSessionShell(a algo.MonotonicAlgo, st *graph.Store, cfg Config) *Session {
	w := cfg.workers()
	s := &Session{
		alg:      a,
		store:    st,
		workers:  w,
		queues:   make([]workQueue, w),
		stealBuf: make([][]graph.VertexID, w),
		kick:     make([]chan struct{}, w),
		done:     make(chan struct{}, w),
	}
	for i := 1; i < w; i++ {
		s.kick[i] = make(chan struct{}, 1)
		go s.workerLoop(i)
	}
	return s
}

func (s *Session) workerLoop(wi int) {
	for range s.kick[wi] {
		s.runWorker(wi)
		s.done <- struct{}{}
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

// bootstrap computes the from-scratch fixpoint and parent forest over
// rows, the store's out-edges in its iteration order, by serial FIFO
// worklist propagation (the same discipline as algo.ReferenceWithParents,
// off a CSR that need not be sorted). When keep is non-nil those states
// are installed verbatim instead of the replayed values — for a
// converged checkpoint the two are bit-identical, but the checkpoint
// bytes are authoritative. It reads no store, so the cold start runs it
// while both of the store's directions are still being placed; keep it
// that way.
func (s *Session) bootstrap(rows *graph.Rows, keep []float64) {
	n := rows.NumVertices()
	s.growTo(n)
	vals := make([]float64, n)
	inQ := make([]bool, n)
	// A FIFO ring of n slots: a vertex is queued at most once at a time.
	queue := make([]graph.VertexID, n)
	for v := 0; v < n; v++ {
		vals[v] = s.alg.InitialValue(graph.VertexID(v))
		s.parent[v] = -1
		queue[v] = graph.VertexID(v)
		inQ[v] = true
	}
	for head, size := 0, n; size > 0; {
		v := queue[head]
		head, size = (head+1)%n, size-1
		inQ[v] = false
		ns, ws := rows.Row(v)
		for i, u := range ns {
			cand := s.alg.Propagate(vals[v], ws[i])
			if s.alg.Better(cand, vals[u]) {
				vals[u] = cand
				s.parent[u] = int32(v)
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

// growTo extends the per-vertex arrays to n vertices, each in one step.
func (s *Session) growTo(n int) {
	old := len(s.states)
	if n <= old {
		return
	}
	s.states, s.parent, s.vlock = extend(s.states, n), extend(s.parent, n), extend(s.vlock, n)
	s.queued, s.improveVer, s.propVer = extend(s.queued, n), extend(s.improveVer, n), extend(s.propVer, n)
	for v := old; v < n; v++ {
		s.states[v] = math.Float64bits(s.alg.InitialValue(graph.VertexID(v)))
		s.parent[v] = -1
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
// audits). Mutating it behind the session's back voids the repair
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
// incrementally, and propagates to convergence. The returned result's
// slices alias reusable session buffers — copy before the next batch if
// retained. Not safe for concurrent use. Warm, it allocates nothing
// (TestSessionSteadyStateZeroAllocs).
func (s *Session) ApplyBatch(batch []graph.Update) graph.ApplyResult {
	res := s.store.Apply(batch)
	s.growTo(s.store.NumVertices())
	s.repairAndSeed(res)
	s.propagate()
	return res
}

// repairAndSeed performs the serial, batch-sized monotonic repair —
// tag / reset / re-gather for deletions, direct relaxation for additions
// — and seeds the worklists with every vertex whose state changed.
func (s *Session) repairAndSeed(res graph.ApplyResult) {
	s.tagged = s.tagged[:0]
	// Tag direct victims: deleted edges that carried the parent link.
	// Tagging cuts a victim's link at once — parent -1, its reset value —
	// so no later check can match it and tag it twice.
	for _, e := range res.DeletedEdges {
		if s.parent[e.Dst] == int32(e.Src) {
			s.parent[e.Dst], s.tagged = -1, append(s.tagged, e.Dst)
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
				if s.parent[w] == int32(x) {
					s.parent[w], s.tagged = -1, append(s.tagged, w)
				}
			}
		}
	}
	s.ctrTags += uint64(len(s.tagged))
	// Reset the whole region first, then gather — every re-gather must
	// observe the post-reset snapshot, or two tagged vertices could keep
	// each other alive through values that are both about to be reset.
	for _, v := range s.tagged {
		s.states[v] = math.Float64bits(s.alg.InitialValue(v))
	}
	s.ctrResets += uint64(len(s.tagged))
	s.gatherVal = s.gatherVal[:0]
	s.gatherPar = s.gatherPar[:0]
	for _, v := range s.tagged {
		best := s.alg.InitialValue(v)
		bestPar := int32(-1)
		for r, left := 0, s.store.InDegree(v); left > 0; r++ {
			ns, ws := s.store.InEdges(v, r)
			left -= len(ns)
			for j, u := range ns {
				cand := s.alg.Propagate(math.Float64frombits(s.states[u]), ws[j])
				if s.alg.Better(cand, best) {
					best = cand
					bestPar = int32(u)
				}
			}
		}
		s.gatherVal = append(s.gatherVal, best)
		s.gatherPar = append(s.gatherPar, bestPar)
	}
	for i, v := range s.tagged {
		s.states[v] = math.Float64bits(s.gatherVal[i])
		s.parent[v] = s.gatherPar[i]
		s.improveVer[v]++ // force re-propagation of the repaired value
		s.activate(v)
	}
	// Additions relax directly.
	for _, e := range res.AddedEdges {
		cand := s.alg.Propagate(math.Float64frombits(s.states[e.Src]), e.Weight)
		if s.alg.Better(cand, math.Float64frombits(s.states[e.Dst])) {
			s.states[e.Dst] = math.Float64bits(cand)
			s.parent[e.Dst] = int32(e.Src)
			s.improveVer[e.Dst]++
			s.activate(e.Dst)
		}
	}
}

// activate enqueues v (round-robin across workers) unless already queued.
func (s *Session) activate(v graph.VertexID) {
	if atomic.CompareAndSwapUint32(&s.queued[v], 0, 1) {
		atomic.AddInt64(&s.pending, 1)
		s.queues[s.seedIdx].push(v)
		s.seedIdx++
		if s.seedIdx == s.workers {
			s.seedIdx = 0
		}
	}
}

// propagate drains the worklists to the fixpoint on the worker pool.
// Panic-safe: if the algorithm panics on worker 0 (the calling
// goroutine), pending is forced to zero so the kicked peers unwind and
// park, then the panic continues — the pool is always quiescent when
// the panic reaches the caller, so a heal can safely Recompute. It
// allocates nothing (TestSessionSteadyStateZeroAllocs).
func (s *Session) propagate() {
	if atomic.LoadInt64(&s.pending) <= 0 {
		return
	}
	for i := 1; i < s.workers; i++ {
		s.kick[i] <- struct{}{}
	}
	defer func() {
		if r := recover(); r != nil {
			atomic.StoreInt64(&s.pending, 0)
			for i := 1; i < s.workers; i++ {
				<-s.done
			}
			panic(r)
		}
		for i := 1; i < s.workers; i++ {
			<-s.done
		}
	}()
	s.runWorker(0)
}

// runWorker drains worklists until the global pending count hits zero:
// pop own queue (LIFO), steal half a victim's queue when empty, spin-
// yield when everything looks empty but peers still hold work.
func (s *Session) runWorker(wi int) {
	q := &s.queues[wi]
	buf := s.stealBuf[wi]
	var visits, edges, skips, steals uint64
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
				// <= 0, not == 0: during a panic unwind propagate zeroes
				// pending while peers are mid-decrement, so it can dip
				// negative transiently.
				if atomic.LoadInt64(&s.pending) <= 0 {
					break
				}
				runtime.Gosched()
				continue
			}
		}
		// Ordering matters: clear queued before loading improveVer, and
		// load improveVer before the state. A concurrent improver bumps
		// the version, then tries to re-queue; this order guarantees we
		// either see its version (and state) or it sees our cleared flag
		// and re-queues — an improvement can never be propagated under a
		// version recorded as already-propagated.
		atomic.StoreUint32(&s.queued[v], 0)
		iv := atomic.LoadUint32(&s.improveVer[v])
		if iv == atomic.LoadUint32(&s.propVer[v]) {
			skips++ // software TDTU: this improvement already went out
			atomic.AddInt64(&s.pending, -1)
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
				cand := s.alg.Propagate(sv, ws[i])
				if s.improve(u, cand, int32(v)) {
					if atomic.CompareAndSwapUint32(&s.queued[u], 0, 1) {
						atomic.AddInt64(&s.pending, 1)
						q.push(u)
					}
				}
			}
		}
		atomic.StoreUint32(&s.propVer[v], iv)
		atomic.AddInt64(&s.pending, -1)
	}
	s.stealBuf[wi] = buf
	atomic.AddUint64(&s.ctrVisits, visits)
	atomic.AddUint64(&s.ctrEdges, edges)
	atomic.AddUint64(&s.ctrSkips, skips)
	atomic.AddUint64(&s.ctrSteals, steals)
}

// improve applies cand to u if it is better, recording the supporting
// parent and bumping the improvement version atomically with the state —
// all three under u's spinlock so the dependency forest always matches
// the value it justifies.
func (s *Session) improve(u graph.VertexID, cand float64, from int32) bool {
	// Optimistic unlocked reject: most candidates lose.
	if !s.alg.Better(cand, math.Float64frombits(atomic.LoadUint64(&s.states[u]))) {
		return false
	}
	for !atomic.CompareAndSwapUint32(&s.vlock[u], 0, 1) {
		runtime.Gosched()
	}
	ok := s.alg.Better(cand, math.Float64frombits(atomic.LoadUint64(&s.states[u])))
	if ok {
		atomic.StoreUint64(&s.states[u], math.Float64bits(cand))
		s.parent[u] = from
		atomic.AddUint32(&s.improveVer[u], 1)
	}
	atomic.StoreUint32(&s.vlock[u], 0)
	return ok
}

// Recompute rebuilds the states and dependency forest from scratch on
// the current graph — the session's self-heal path. It also discards any
// worklist wreckage a serial-phase panic may have left (seeded entries
// that were never propagated), so a healed session starts the next batch
// clean. Must not run concurrently with ApplyBatch.
func (s *Session) Recompute() {
	for i := range s.queues {
		s.queues[i].reset(s.queued)
	}
	atomic.StoreInt64(&s.pending, 0)
	s.bootstrap(s.store.Rows(), nil)
}

// Metrics snapshots the session's counters into a fresh collector.
func (s *Session) Metrics() *stats.Collector {
	c := stats.NewCollector()
	c.Set(stats.CtrPropagationVisits, atomic.LoadUint64(&s.ctrVisits))
	c.Set(stats.CtrEdgesProcessed, atomic.LoadUint64(&s.ctrEdges))
	c.Set(stats.CtrNativeTDTUSkips, atomic.LoadUint64(&s.ctrSkips))
	c.Set(stats.CtrWorkSteals, atomic.LoadUint64(&s.ctrSteals))
	c.Set(stats.CtrTagPropagations, atomic.LoadUint64(&s.ctrTags))
	c.Set(stats.CtrResets, atomic.LoadUint64(&s.ctrResets))
	return c
}
