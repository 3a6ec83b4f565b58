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

// retryClient is a client whose retry loop runs on clock with the given
// policy. Its attempts are test closures, so it never dials.
func retryClient(t *testing.T, clock *fakeClock, backoff *Backoff, br *Breaker, maxAttempts int) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Nodes:       []string{"unused"},
		Dial:        func(string) (net.Conn, error) { return nil, errors.New("retry tests never dial") },
		MaxAttempts: maxAttempts,
		Seed:        1,
		Backoff:     backoff,
		Breaker:     br,
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
	c := retryClient(t, clock, NewBackoff(1), NewBreaker(10, 0, clock), 0)
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
// the last failure.
func TestClientRetryGivesUp(t *testing.T) {
	clock := newFakeClock()
	down := errors.New("down hard")
	c := retryClient(t, clock, NewBackoff(1), NewBreaker(100, 0, clock), 4)
	calls := 0
	err := c.retry(context.Background(), func() error { calls++; return down })
	if !errors.Is(err, ErrGivenUp) || !errors.Is(err, down) {
		t.Fatalf("want ErrGivenUp wrapping the last cause, got %v", err)
	}
	if calls != 4 {
		t.Fatalf("retries = %d, want 4", calls)
	}
}

// TestClientRetryBreakerGates: once the breaker opens, the client waits
// out the reset timeout instead of burning attempts.
func TestClientRetryBreakerGates(t *testing.T) {
	clock := newFakeClock()
	br := NewBreaker(2, 30*time.Second, clock)
	c := retryClient(t, clock, NewBackoff(1), br, 6)
	calls := 0
	err := c.retry(context.Background(), func() error { calls++; return errors.New("down") })
	if !errors.Is(err, ErrGivenUp) {
		t.Fatal(err)
	}
	if br.Opens() == 0 {
		t.Fatal("breaker never opened")
	}
	// Open-state waits show up as ResetTimeout sleeps on the fake clock.
	var gated bool
	for _, d := range clock.slept {
		if d == br.ResetTimeout {
			gated = true
		}
	}
	if !gated {
		t.Fatalf("no reset-timeout wait recorded: %v", clock.slept)
	}
	if calls >= 7 {
		t.Fatalf("breaker did not reduce pressure: %d calls", calls)
	}
}

// TestClientRetryBusyHintFloorsDelay: a busy refusal's retry-after
// hint floors the backoff delay.
func TestClientRetryBusyHintFloorsDelay(t *testing.T) {
	clock := newFakeClock()
	backoff := NewBackoff(1)
	backoff.Jitter = 0 // Delay(0) = 50ms, far below the hint
	c := retryClient(t, clock, backoff, nil, 0)
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
	c := retryClient(t, clock, backoff, nil, 0)
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
// delivery failure: no retry, no breaker accounting. A shutdown must
// not trip the breaker open for the next run.
func TestClientRetryNeverRetriesCancellation(t *testing.T) {
	clock := newFakeClock()
	br := NewBreaker(1, time.Second, clock) // one failure would open it
	c := retryClient(t, clock, nil, br, 0)
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
	if br.state != BreakerClosed || br.Opens() != 0 {
		t.Fatalf("cancellation tripped the breaker: %v opens=%d", br.state, br.Opens())
	}

	// A caller-cancelled context short-circuits the same way.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c2 := retryClient(t, clock, nil, NewBreaker(1, time.Second, clock), 0)
	calls = 0
	if err := c2.retry(ctx, func() error { calls++; return errors.New("transport down") }); err == nil {
		t.Fatal("cancelled context retried to success?")
	}
	if calls != 1 {
		t.Fatalf("cancelled context produced %d retries", calls-1)
	}
}

// TestClientRetryDeadlineFeedsBreaker: genuine timeouts (including
// context.DeadlineExceeded surfaced by a transport) ARE delivery
// failures — retried, counted, breaker-fed.
func TestClientRetryDeadlineFeedsBreaker(t *testing.T) {
	clock := newFakeClock()
	br := NewBreaker(3, time.Second, clock)
	c := retryClient(t, clock, nil, br, 0)
	calls := 0
	err := c.retry(context.Background(), func() error {
		calls++
		if calls == 1 {
			return fmt.Errorf("ack wait: %w", context.DeadlineExceeded)
		}
		if br.failures != 1 {
			t.Errorf("breaker counted %d failures before the retry, want 1", br.failures)
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
