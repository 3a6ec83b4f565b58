package serve

import (
	"context"
	"errors"
	"fmt"
	"io"

	"github.com/tdgraph/tdgraph/internal/graph"
)

// Source yields update batches. Next returns io.EOF when the stream
// ends; any other error is a delivery failure the retry layer may
// absorb. Sources are read from a single goroutine.
type Source interface {
	Next(ctx context.Context) ([]graph.Update, error)
}

// FuncSource adapts a function to Source.
type FuncSource func(ctx context.Context) ([]graph.Update, error)

func (f FuncSource) Next(ctx context.Context) ([]graph.Update, error) { return f(ctx) }

// ErrSourceGivenUp reports a source read abandoned after the retry
// budget was exhausted; it wraps the final delivery error.
var ErrSourceGivenUp = errors.New("serve: source retries exhausted")

// RetrySource hardens a flaky source: delivery failures are retried
// with exponential backoff and jitter, behind a circuit breaker that
// stops hammering a source that is down and probes it again after its
// reset timeout. io.EOF and caller cancellation pass straight through
// without touching the breaker — only deadline and transport errors
// count as source failures. When a failure carries a server
// retry-after hint (backpressure), the next delay is floored at it.
type RetrySource struct {
	inner   Source
	backoff *Backoff
	breaker *Breaker
	clock   Clock
	// MaxAttempts bounds tries per batch (default 8). Exhaustion
	// returns an error wrapping ErrSourceGivenUp and the last failure.
	MaxAttempts int

	retries uint64
}

// NewRetrySource wraps src. Nil backoff, breaker or clock get
// defaults (seeded from `seed`, real time).
func NewRetrySource(src Source, backoff *Backoff, breaker *Breaker, clock Clock, seed int64) *RetrySource {
	if clock == nil {
		clock = RealClock{}
	}
	if backoff == nil {
		backoff = NewBackoff(seed)
	}
	if breaker == nil {
		breaker = NewBreaker(0, 0, clock)
	}
	return &RetrySource{inner: src, backoff: backoff, breaker: breaker, clock: clock, MaxAttempts: 8}
}

// Retries returns how many delivery retries have happened.
func (r *RetrySource) Retries() uint64 { return r.retries }

// Breaker exposes the circuit breaker for observability.
func (r *RetrySource) Breaker() *Breaker { return r.breaker }

func (r *RetrySource) Next(ctx context.Context) ([]graph.Update, error) {
	max := r.MaxAttempts
	if max <= 0 {
		max = 8
	}
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		if !r.breaker.Allow() {
			// Open breaker: wait out the reset timeout instead of
			// burning attempts against a source known to be down.
			if err := r.clock.Sleep(ctx, r.breaker.ResetTimeout); err != nil {
				return nil, err
			}
			attempt--
			continue
		}
		batch, err := r.inner.Next(ctx)
		if err == nil || errors.Is(err, io.EOF) {
			r.breaker.Record(nil)
			return batch, err
		}
		if ctx.Err() != nil || errors.Is(err, context.Canceled) {
			// The caller gave up (or a cancellation bubbled through the
			// source): not a source failure. No retry, and crucially no
			// breaker accounting — a shutdown must never trip the breaker
			// open for the next session.
			return batch, err
		}
		// Everything else — timeouts, expired batch deadlines, transport
		// failures — feeds the breaker and is retried.
		r.breaker.Record(err)
		lastErr = err
		r.retries++
		delay := r.backoff.Delay(attempt)
		var hint retryAfterHint
		if errors.As(err, &hint) {
			// The server told us when it wants to hear from us again;
			// honor it as a floor on the backoff.
			if ra := hint.RetryAfterHint(); ra > delay {
				delay = ra
			}
		}
		if err := r.clock.Sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("%w after %d attempts: %w", ErrSourceGivenUp, max, lastErr)
}
