package serve

import (
	"errors"
	"sync"
	"testing"

	"github.com/tdgraph/tdgraph/internal/graph"
)

func mkBatch(n int, base uint32) []graph.Update {
	b := make([]graph.Update, n)
	for i := range b {
		b[i] = graph.Update{Edge: graph.Edge{Src: base + uint32(i), Dst: base + uint32(i) + 1, Weight: 1}}
	}
	return b
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 4})
	for i := 0; i < 3; i++ {
		if err := q.Put(mkBatch(2, uint32(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		b, err := q.Get()
		if err != nil {
			t.Fatal(err)
		}
		if b[0].Edge.Src != uint32(i*10) {
			t.Fatalf("batch %d out of order: src %d", i, b[0].Edge.Src)
		}
	}
}

// TestQueueBlocking: a full queue parks the producer until the consumer
// frees a slot.
func TestQueueBlocking(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 1})
	if err := q.Put(mkBatch(1, 0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- q.Put(mkBatch(1, 100)) }()
	select {
	case err := <-done:
		t.Fatalf("put did not block on a full queue (err %v)", err)
	default:
	}
	if _, err := q.Get(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("unblocked put failed: %v", err)
	}
}

// TestQueueCloseDrains: Close stops admission but queued batches stay
// drainable; Get reports ErrQueueClosed only once empty.
func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(QueueConfig{Capacity: 4})
	q.Put(mkBatch(1, 0))
	q.Put(mkBatch(1, 10))
	q.Close()
	if err := q.Put(mkBatch(1, 20)); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("put after close: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := q.Get(); err != nil {
			t.Fatalf("drain batch %d: %v", i, err)
		}
	}
	if _, err := q.Get(); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("get after drain: %v", err)
	}
}

// TestQueueCloseWakesWaiters: a consumer parked on an empty queue and a
// producer parked on a full one both wake when Close is called.
func TestQueueCloseWakesWaiters(t *testing.T) {
	empty := NewQueue(QueueConfig{Capacity: 1})
	full := NewQueue(QueueConfig{Capacity: 1})
	full.Put(mkBatch(1, 0))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := empty.Get(); !errors.Is(err, ErrQueueClosed) {
			t.Errorf("parked Get woke with %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := full.Put(mkBatch(1, 10)); !errors.Is(err, ErrQueueClosed) {
			t.Errorf("parked Put woke with %v", err)
		}
	}()
	empty.Close()
	full.Close()
	wg.Wait()
}
