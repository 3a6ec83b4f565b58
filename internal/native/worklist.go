package native

import (
	"sync"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// workQueue is one worker's worklist: a mutex-guarded LIFO owned by its
// worker, stolen from FIFO-side by idle peers. LIFO for the owner keeps
// the frontier depth-first (hot vertex states still in cache); stealing
// from the other end takes the oldest — and typically largest-subtree —
// entries, which is the classic work-first stealing heuristic.
//
// The backing slice only ever grows, so steady-state push/pop is
// allocation-free. A thief never holds two queue locks: it drains into a
// private buffer under the victim's lock, then pushes into its own queue
// separately — no lock-order cycle is possible.
type workQueue struct {
	mu    sync.Mutex
	items []graph.VertexID
}

func (q *workQueue) push(v graph.VertexID) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = append(q.items, v)
}

func (q *workQueue) pop() (graph.VertexID, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.items)
	if n == 0 {
		return 0, false
	}
	v := q.items[n-1]
	q.items = q.items[:n-1]
	return v, true
}

// reset empties the queue. Only called from the serial phases (no
// workers active).
func (q *workQueue) reset() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = q.items[:0]
}

// stealInto appends up to half of the queue (FIFO side) to buf and
// returns the extended buffer. An empty result means nothing to steal.
func (q *workQueue) stealInto(buf []graph.VertexID) []graph.VertexID {
	q.mu.Lock()
	defer q.mu.Unlock()
	k := len(q.items) / 2
	if k == 0 {
		return buf
	}
	buf = append(buf, q.items[:k]...)
	n := copy(q.items, q.items[k:])
	q.items = q.items[:n]
	return buf
}
