package replica

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/tdgraph/tdgraph/internal/serve"
)

// Backoff computes retry delays: exponential growth from Base by
// Multiplier, capped at Max, with a symmetric ±Jitter/2 fraction of
// seeded jitter so a fleet of retriers never thunders in lockstep.
// Deterministic for a given seed and call sequence.
type Backoff struct {
	Base       time.Duration // first delay (default 50ms)
	Max        time.Duration // hard cap on any delay (default 10s)
	Multiplier float64       // growth per attempt (default 2)
	Jitter     float64       // total jitter fraction in [0,1) (default 0.2)
	rng        *rand.Rand
}

// NewBackoff returns a backoff with the defaults and a seeded jitter
// stream.
func NewBackoff(seed int64) *Backoff {
	return &Backoff{
		Base:       50 * time.Millisecond,
		Max:        10 * time.Second,
		Multiplier: 2,
		Jitter:     0.2,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Delay returns the delay before retry `attempt` (0-based). Without
// jitter the sequence is exactly Base·Multiplierᵃ capped at Max; with
// jitter each delay is scaled by a factor in [1−J/2, 1+J/2) and the
// cap still holds.
func (b *Backoff) Delay(attempt int) time.Duration {
	base, max, mult := b.Base, b.Max, b.Multiplier
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 10 * time.Second
	}
	if mult < 1 {
		mult = 2
	}
	d := float64(base) * math.Pow(mult, float64(attempt))
	if d > float64(max) {
		d = float64(max)
	}
	if b.Jitter > 0 && b.rng != nil {
		d *= 1 - b.Jitter/2 + b.rng.Float64()*b.Jitter
	}
	if d > float64(max) {
		d = float64(max)
	}
	return time.Duration(d)
}

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: calls flow, consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: calls are refused until the reset timeout elapses.
	BreakerOpen
	// BreakerHalfOpen: trial calls flow; one success closes, one
	// failure reopens.
	BreakerHalfOpen
)

// Breaker is a consecutive-failure circuit breaker guarding the
// client's submissions: after FailureThreshold consecutive failures it opens and
// refuses calls for ResetTimeout, then half-opens to probe with trial
// calls. Safe for concurrent use.
type Breaker struct {
	FailureThreshold int           // consecutive failures to open (default 5)
	ResetTimeout     time.Duration // open → half-open delay (default 5s)

	clock    serve.Clock
	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	opens    uint64
}

// NewBreaker returns a closed breaker on the given clock (nil = real
// time).
func NewBreaker(threshold int, reset time.Duration, clock serve.Clock) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if reset <= 0 {
		reset = 5 * time.Second
	}
	if clock == nil {
		clock = serve.RealClock{}
	}
	return &Breaker{FailureThreshold: threshold, ResetTimeout: reset, clock: clock}
}

// Allow reports whether a call may proceed, flipping open → half-open
// once the reset timeout has elapsed.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		if b.clock.Now().Sub(b.openedAt) < b.ResetTimeout {
			return false
		}
		b.state = BreakerHalfOpen
	}
	return true
}

// Record feeds a call outcome to the breaker: success closes (and
// clears the failure count), failure counts toward the threshold and
// reopens immediately from half-open.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.state = BreakerClosed
		b.failures = 0
		return
	}
	b.failures++
	if b.state == BreakerHalfOpen || b.failures >= b.FailureThreshold {
		if b.state != BreakerOpen {
			b.opens++
		}
		b.state = BreakerOpen
		b.openedAt = b.clock.Now()
		b.failures = 0
	}
}

// Opens returns how many times the breaker has opened.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
