package sim

import (
	"context"
	"fmt"
)

// WatchdogError is thrown (as a panic from the engine-driving goroutine)
// when a simulated run outlives its watchdog context — the hung-run
// detector of the robustness layer. Engines drive the machine through
// deep call chains with no error returns (every Port access is
// infallible by design), so cancellation propagates as a panic that the
// run boundary (bench.RunCtx, or any caller that arms a watchdog)
// recovers and converts back into an error.
type WatchdogError struct {
	Err error // the watchdog context's Err: DeadlineExceeded or Canceled
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: run aborted by watchdog: %v", e.Err)
}

func (e *WatchdogError) Unwrap() error { return e.Err }

// wdStride amortises the context poll: one check per this many line
// accesses keeps watchdog overhead unmeasurable while still bounding
// abort latency to a few thousand simulated accesses.
const wdStride = 1 << 14

// SetWatchdog arms the machine with a cancellation context: once ctx is
// done, the next polled access or barrier panics with *WatchdogError on
// the engine goroutine. The caller that armed the watchdog must recover
// it (bench.RunCtx does). A nil ctx disarms. Panicking — rather than
// returning errors through the Port API — keeps the hot access path
// free of error plumbing; the machine is discarded after an abort, so no
// state consistency is required beyond unwinding.
func (m *Machine) SetWatchdog(ctx context.Context) {
	m.wdCtx = ctx
	m.wdCount = 0
}

// wdPoll checks the watchdog immediately; called at barriers (always on
// the engine goroutine).
func (m *Machine) wdPoll() {
	if m.wdCtx == nil {
		return
	}
	select {
	case <-m.wdCtx.Done():
		panic(&WatchdogError{Err: m.wdCtx.Err()})
	default:
	}
}

// wdCheck is the amortised per-access poll on the access hot path.
func (m *Machine) wdCheck() {
	if m.wdCtx == nil {
		return
	}
	m.wdCount++
	if m.wdCount%wdStride == 0 {
		m.wdPoll()
	}
}
