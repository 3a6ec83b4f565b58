package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file is the overload ladder: typed deadline / disk-pressure
// errors and the SLO admission controller. The ladder degrades in
// order — miss a deadline (per-batch), advertise backpressure
// (retry-after on Reject), refuse writes entirely (read-only under
// disk pressure) — and every rung is retryable: nothing here poisons
// state or kills a session.

// ErrDeadline marks a batch abandoned because its deadline expired
// before it became durable. Retryable: re-sending the same batch (same
// sequence) is always safe — expiry is only ever reported for work
// that was refused before the WAL append or failed quorum afterwards,
// and the exactly-once machinery dedupes a re-send either way.
var ErrDeadline = errors.New("serve: batch deadline exceeded")

// DeadlineError locates where in the ingest ladder a deadline died:
// "admit" (refused before the WAL append — nothing happened) or
// "replicate" (the quorum wait outlived it). errors.Is sees
// ErrDeadline through it.
type DeadlineError struct {
	Stage string
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("serve: batch deadline expired in stage %q", e.Stage)
}

func (e *DeadlineError) Unwrap() error { return ErrDeadline }

// NewDeadlineError locates a deadline expiry at stage. Foreign
// packages (the replication transport reports "submit" and
// "replicate" expiries) construct through it so the wrapping contract
// stays in this package.
func NewDeadlineError(stage string) *DeadlineError { return &DeadlineError{Stage: stage} }

// ErrShed reports a submission refused by SLO admission control: the
// leader is healthy but saturated. Retryable after the hint it carries.
var ErrShed = errors.New("serve: batch shed by admission control")

// ErrDiskPressure marks an ingest refused because the volume under the
// WAL is out of (or nearly out of) space. Retryable after space frees:
// the pipeline enters read-only, keeps serving reads and heartbeats,
// and resumes ingestion automatically once the free-space probe clears
// the high-water mark.
var ErrDiskPressure = errors.New("serve: ingest refused under disk pressure")

// DiskPressureError carries the free-space reading that tripped the
// refusal. errors.Is sees ErrDiskPressure through it.
type DiskPressureError struct {
	Op       string // what hit the wall: "admit", "append", "checkpoint"
	Free     uint64 // bytes free at the probe (0 when unknown/ENOSPC)
	LowWater uint64 // the threshold in force
}

func (e *DiskPressureError) Error() string {
	return fmt.Sprintf("serve: disk pressure at %s: %d bytes free, low-water %d", e.Op, e.Free, e.LowWater)
}

func (e *DiskPressureError) Unwrap() error { return ErrDiskPressure }

// PressureLevel is the SLO controller's admission posture, escalating
// from business-as-usual through a warning step to shedding.
type PressureLevel int

const (
	// PressureNone: admit normally.
	PressureNone PressureLevel = iota
	// PressureCoalesce is only an escalation step: latency has run hot
	// for one streak, admission is unchanged, and one more streak sheds.
	PressureCoalesce
	// PressureShed: refuse new work (with a retry-after hint) until
	// latency recovers.
	PressureShed
)

func (p PressureLevel) String() string {
	switch p {
	case PressureCoalesce:
		return "coalesce"
	case PressureShed:
		return "shed"
	default:
		return "none"
	}
}

// SLOConfig parameterises the admission controller.
type SLOConfig struct {
	// Target is the ingest-latency objective (the -slo flag). Zero
	// disables the controller entirely.
	Target time.Duration
	// EscalateAfter is how many consecutive over-target observations
	// raise the pressure one level (default 4); RelaxAfter is how many
	// consecutive healthy ones lower it (default 8). Escalating is
	// deliberately twice as eager as relaxing.
	EscalateAfter int
	RelaxAfter    int
}

// SLOController turns a stream of ingest-latency observations into a
// pressure level. It is deterministic: no goroutine, no timer —
// callers observe with latencies measured on the injected clock, so
// the same run produces the same pressure trajectory. A nil controller
// is valid and always reports PressureNone.
type SLOController struct {
	cfg SLOConfig

	mu         sync.Mutex
	ewma       time.Duration // smoothed latency, alpha = 1/4
	level      PressureLevel
	hotStreak  int
	coolStreak int
}

// NewSLOController builds a controller for the given objective, or
// returns nil (controller disabled) when the target is zero.
func NewSLOController(cfg SLOConfig) *SLOController {
	if cfg.Target <= 0 {
		return nil
	}
	if cfg.EscalateAfter <= 0 {
		cfg.EscalateAfter = 4
	}
	if cfg.RelaxAfter <= 0 {
		cfg.RelaxAfter = 8
	}
	return &SLOController{cfg: cfg}
}

// Observe feeds one ingest measurement: how long the batch took to
// become durable. Escalation needs a streak; a single slow batch never
// trips the ladder.
func (c *SLOController) Observe(latency time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ewma == 0 {
		c.ewma = latency
	} else {
		c.ewma = (3*c.ewma + latency) / 4
	}
	switch {
	case c.ewma > c.cfg.Target:
		c.coolStreak = 0
		c.hotStreak++
		if c.hotStreak >= c.cfg.EscalateAfter && c.level < PressureShed {
			c.level++
			c.hotStreak = 0
		}
	case c.ewma <= c.cfg.Target/2:
		c.hotStreak = 0
		c.coolStreak++
		if c.coolStreak >= c.cfg.RelaxAfter && c.level > PressureNone {
			c.level--
			c.coolStreak = 0
		}
	default:
		c.hotStreak, c.coolStreak = 0, 0
	}
}

// Level reports the current admission posture.
func (c *SLOController) Level() PressureLevel {
	if c == nil {
		return PressureNone
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.level
}

// RetryAfter is the backpressure hint to advertise to clients while
// shedding: how far the smoothed latency is over target, clamped to
// [target/4, 4*target]. Zero below PressureShed.
func (c *SLOController) RetryAfter() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.level < PressureShed {
		return 0
	}
	ra := c.ewma - c.cfg.Target
	if ra < c.cfg.Target/4 {
		ra = c.cfg.Target / 4
	}
	if ra > 4*c.cfg.Target {
		ra = 4 * c.cfg.Target
	}
	return ra
}
