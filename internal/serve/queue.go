package serve

import (
	"errors"
	"sync"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// ErrQueueClosed reports an operation on a closed queue: Put after
// Close, or Get after Close once the queue has drained.
var ErrQueueClosed = errors.New("serve: ingest queue closed")

// QueueConfig bounds the queue.
type QueueConfig struct {
	// Capacity is the maximum queued batches (default 16).
	Capacity int
}

// Queue is a bounded FIFO hand-off of update batches: Put blocks while
// it is full, Get while it is empty. No serving path uses it; the
// benchmark ladder times one Put and one Get per batch. Safe for any
// number of producers and consumers.
type Queue struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	items    [][]graph.Update
	capacity int
	closed   bool
}

// NewQueue returns an open queue.
func NewQueue(cfg QueueConfig) *Queue {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 16
	}
	q := &Queue{capacity: cfg.Capacity}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// Put appends one batch, blocking while the queue is full. It returns
// ErrQueueClosed after Close.
func (q *Queue) Put(batch []graph.Update) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) >= q.capacity && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return ErrQueueClosed
	}
	q.items = append(q.items, batch)
	q.notEmpty.Signal()
	return nil
}

// Get removes the oldest batch, blocking while the queue is empty and
// open. After Close it drains the remaining batches and then returns
// ErrQueueClosed.
func (q *Queue) Get() ([]graph.Update, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if len(q.items) == 0 {
		return nil, ErrQueueClosed
	}
	batch := q.items[0]
	q.items = q.items[1:]
	q.notFull.Signal()
	return batch, nil
}

// Close stops admission and wakes every waiter. Queued batches remain
// drainable via Get.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}
