// Package serve is the durable core of the ingestion path: it turns
// the batch-at-a-time Session API into a long-running service. Every
// batch is made durable in the write-ahead log before it touches the
// session, and recovery restores the newest checkpoint plus WAL
// replay. Overload degrades through typed, retryable refusals
// (deadlines, SLO shedding, read-only under disk pressure), and
// shutdown flushes and writes a final checkpoint. replica.Node runs
// every serving member on top of it, a lone one included.
package serve

import (
	"context"
	"time"
)

// Clock abstracts time for deadline checks and for replica's retry and
// role loops, so tests drive every transition with a fake clock instead
// of sleeping.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock is the production clock.
type RealClock struct{}

func (RealClock) Now() time.Time { return time.Now() }

func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
