package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the retry and breaker logic without sleeping: Sleep
// records the request and advances time instantly.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
	return nil
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestBackoffExponentialGrowth(t *testing.T) {
	b := NewBackoff(1)
	b.Jitter = 0 // exact sequence
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{
		{0, 50 * time.Millisecond},
		{1, 100 * time.Millisecond},
		{2, 200 * time.Millisecond},
		{3, 400 * time.Millisecond},
		{7, 6400 * time.Millisecond},
		{8, 10 * time.Second}, // 12.8s capped at Max
		{20, 10 * time.Second},
	} {
		if got := b.Delay(tc.attempt); got != tc.want {
			t.Errorf("Delay(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := NewBackoff(42)
	nominal := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	for round := 0; round < 200; round++ {
		for attempt, n := range nominal {
			d := b.Delay(attempt)
			lo := time.Duration(float64(n) * (1 - b.Jitter/2))
			hi := time.Duration(float64(n) * (1 + b.Jitter/2))
			if d < lo || d > hi {
				t.Fatalf("Delay(%d) = %v outside jitter band [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	a, b := NewBackoff(7), NewBackoff(7)
	for i := 0; i < 32; i++ {
		if da, db := a.Delay(i%6), b.Delay(i%6); da != db {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, da, db)
		}
	}
}

func TestBackoffCapHoldsUnderJitter(t *testing.T) {
	b := NewBackoff(3)
	b.Max = 200 * time.Millisecond
	for i := 0; i < 100; i++ {
		if d := b.Delay(10); d > b.Max {
			t.Fatalf("jittered delay %v exceeds cap %v", d, b.Max)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clock := newFakeClock()
	br := NewBreaker(3, 5*time.Second, clock)
	boom := errors.New("boom")

	// Closed: failures below the threshold keep calls flowing.
	for i := 0; i < 2; i++ {
		if !br.Allow() {
			t.Fatal("closed breaker refused a call")
		}
		br.Record(boom)
	}
	if br.state != BreakerClosed {
		t.Fatalf("state %v, want closed", br.state)
	}

	// Third consecutive failure opens it.
	br.Record(boom)
	if br.state != BreakerOpen {
		t.Fatalf("state %v, want open", br.state)
	}
	if br.Allow() {
		t.Fatal("open breaker allowed a call before the reset timeout")
	}

	// Reset timeout elapses: half-open, trial calls flow.
	clock.Advance(5 * time.Second)
	if !br.Allow() {
		t.Fatal("breaker did not half-open after the reset timeout")
	}
	if br.state != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", br.state)
	}

	// A half-open failure reopens immediately.
	br.Record(boom)
	if br.state != BreakerOpen {
		t.Fatalf("state %v, want open after half-open failure", br.state)
	}
	if got := br.Opens(); got != 2 {
		t.Fatalf("opens = %d, want 2", got)
	}

	// Second probe succeeds: closed, failure count cleared.
	clock.Advance(5 * time.Second)
	if !br.Allow() {
		t.Fatal("breaker did not half-open again")
	}
	br.Record(nil)
	if br.state != BreakerClosed {
		t.Fatalf("state %v, want closed after successful probe", br.state)
	}
	// The old failures are gone: two new ones must not trip it.
	br.Record(boom)
	br.Record(boom)
	if br.state != BreakerClosed {
		t.Fatal("failure count survived the close")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	br := NewBreaker(2, time.Second, newFakeClock())
	boom := errors.New("boom")
	for i := 0; i < 10; i++ {
		br.Record(boom)
		br.Record(nil) // success between failures: never two consecutive
	}
	if br.state != BreakerClosed || br.Opens() != 0 {
		t.Fatalf("interleaved failures tripped the breaker: %v, opens %d", br.state, br.Opens())
	}
}
