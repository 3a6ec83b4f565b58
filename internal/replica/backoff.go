package replica

import (
	"math"
	"math/rand"
	"time"
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
