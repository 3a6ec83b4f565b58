package replica

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the retry logic without sleeping: Sleep records the
// request and advances time instantly.
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

// retryClient is a client whose retry loop runs on clock with the given
// policy. Its attempts are test closures, so it never dials.
func retryClient(t *testing.T, clock *fakeClock, backoff *Backoff, maxAttempts int) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Nodes:       []string{"unused"},
		Dial:        func(string) (net.Conn, error) { return nil, errors.New("retry tests never dial") },
		MaxAttempts: maxAttempts,
		Seed:        1,
		Backoff:     backoff,
		Clock:       clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.startRun()
	return c
}

// TestClientRetryAbsorbsTransientFailures: every batch fails twice
// before it lands; the retry loop absorbs exactly those failures.
func TestClientRetryAbsorbsTransientFailures(t *testing.T) {
	const batches = 4
	clock := newFakeClock()
	c := retryClient(t, clock, NewBackoff(1), 0)
	calls, delivered := 0, 0
	for b := 0; b < batches; b++ {
		failures := 2
		err := c.retry(context.Background(), func() error {
			calls++
			if failures > 0 {
				failures--
				return errors.New("flaky: transient delivery failure")
			}
			delivered++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if delivered != batches {
		t.Fatalf("delivered %d batches, want %d", delivered, batches)
	}
	if retries := calls - delivered; retries != 2*batches {
		t.Fatalf("retries = %d, want %d", retries, 2*batches)
	}
}

// TestClientRetryGivesUp: an exhausted budget wraps ErrGivenUp around
// the last failure, and returns as soon as the last attempt fails: one
// backoff sleep between each two attempts, none after the last. At the
// defaults (10 attempts, unjittered) the last attempt comes 22.75 s
// after the first.
func TestClientRetryGivesUp(t *testing.T) {
	down := errors.New("down hard")
	for _, tc := range []struct {
		maxAttempts, calls int
		patience           time.Duration
	}{
		{4, 4, 350 * time.Millisecond},
		{0, 10, 22750 * time.Millisecond},
	} {
		clock := newFakeClock()
		backoff := NewBackoff(1)
		backoff.Jitter = 0
		c := retryClient(t, clock, backoff, tc.maxAttempts)
		calls := 0
		err := c.retry(context.Background(), func() error { calls++; return down })
		if !errors.Is(err, ErrGivenUp) || !errors.Is(err, down) {
			t.Fatalf("want ErrGivenUp wrapping the last cause, got %v", err)
		}
		if calls != tc.calls {
			t.Fatalf("MaxAttempts %d: attempts = %d, want %d", tc.maxAttempts, calls, tc.calls)
		}
		if len(clock.slept) != calls-1 {
			t.Fatalf("%d attempts slept %d times (%v), want %d", calls, len(clock.slept), clock.slept, calls-1)
		}
		var patience time.Duration
		for _, d := range clock.slept {
			patience += d
		}
		if patience != tc.patience {
			t.Fatalf("MaxAttempts %d: last attempt %v after the first, want %v", tc.maxAttempts, patience, tc.patience)
		}
	}
}

// TestClientRetryBusyHintFloorsDelay: a busy refusal's retry-after
// hint floors the backoff delay.
func TestClientRetryBusyHintFloorsDelay(t *testing.T) {
	clock := newFakeClock()
	backoff := NewBackoff(1)
	backoff.Jitter = 0 // Delay(0) = 50ms, far below the hint
	c := retryClient(t, clock, backoff, 0)
	calls := 0
	err := c.retry(context.Background(), func() error {
		calls++
		if calls == 1 {
			return fmt.Errorf("refused: %w", &BusyError{Reason: "slo", RetryAfter: 2 * time.Second})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(clock.slept) != 1 || clock.slept[0] != 2*time.Second {
		t.Fatalf("slept %v, want exactly the 2s retry-after floor", clock.slept)
	}
	if calls != 2 {
		t.Fatalf("retries %d, want 1", calls-1)
	}
}

// TestClientRetryBackoffWinsOverSmallHint: when the scheduled backoff
// already exceeds the hint, the larger delay stands.
func TestClientRetryBackoffWinsOverSmallHint(t *testing.T) {
	clock := newFakeClock()
	backoff := NewBackoff(1)
	backoff.Jitter = 0
	c := retryClient(t, clock, backoff, 0)
	calls := 0
	err := c.retry(context.Background(), func() error {
		calls++
		if calls == 1 {
			return &BusyError{Reason: "slo", RetryAfter: time.Millisecond}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(clock.slept) != 1 || clock.slept[0] != 50*time.Millisecond {
		t.Fatalf("slept %v, want the 50ms backoff", clock.slept)
	}
}

// TestClientRetryNeverRetriesCancellation: context.Canceled — whether
// from the caller's context or bubbled through an attempt — is not a
// delivery failure: no retry.
func TestClientRetryNeverRetriesCancellation(t *testing.T) {
	clock := newFakeClock()
	c := retryClient(t, clock, nil, 0)
	calls := 0
	err := c.retry(context.Background(), func() error {
		calls++
		return fmt.Errorf("submit interrupted: %w", context.Canceled)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled through untouched", err)
	}
	if calls != 1 {
		t.Fatalf("calls=%d, want a single attempt and no retries", calls)
	}

	// A caller-cancelled context short-circuits the same way.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c2 := retryClient(t, clock, nil, 0)
	calls = 0
	if err := c2.retry(ctx, func() error { calls++; return errors.New("transport down") }); err == nil {
		t.Fatal("cancelled context retried to success?")
	}
	if calls != 1 {
		t.Fatalf("cancelled context produced %d retries", calls-1)
	}
}

// TestClientRetryRetriesDeadline: genuine timeouts (including
// context.DeadlineExceeded surfaced by a transport) ARE delivery
// failures, retried like any other.
func TestClientRetryRetriesDeadline(t *testing.T) {
	clock := newFakeClock()
	c := retryClient(t, clock, nil, 0)
	calls := 0
	err := c.retry(context.Background(), func() error {
		calls++
		if calls == 1 {
			return fmt.Errorf("ack wait: %w", context.DeadlineExceeded)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("retries %d, want 1 (the timeout was retried)", calls-1)
	}
}
