package serve

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// settledWorkers counts the native engine's pool goroutines once the
// count holds still: a closed pool's goroutines leave on their own
// schedule, within moments.
func settledWorkers() int {
	count := func() int {
		buf := make([]byte, 1<<16)
		for {
			if n := runtime.Stack(buf, true); n < len(buf) {
				return strings.Count(string(buf[:n]), "native.(*Session).workerLoop(")
			}
			buf = make([]byte, 2*len(buf))
		}
	}
	got := count()
	for prev := -1; got != prev; got = count() {
		prev = got
		time.Sleep(10 * time.Millisecond)
	}
	return got
}

// TestNativeWorkersJoined: every teardown path of a pipeline parks its
// native session's worker pool, so the count of pool goroutines is back
// at its baseline after each test below — Close, InstallSnapshot then
// Close (that test also pins exactly one pool between the two), and
// NewPipeline's ErrRecoveryGap, which releases a pipeline that never
// finished opening. A simulated kill -9 is exempt: process death is the
// release.
func TestNativeWorkersJoined(t *testing.T) {
	base := settledWorkers()
	for _, tc := range []struct {
		path string
		test func(*testing.T)
	}{
		{"Close", TestPipelineRestartResumes},
		{"InstallSnapshot", TestInstallSnapshotSwapsState},
		{"RecoveryGap", TestNewPipelineRejectsRecoveryGap},
	} {
		t.Run(tc.path, tc.test)
		if got := settledWorkers(); got != base {
			t.Errorf("after %s: %d native worker goroutines alive, want %d", tc.path, got, base)
			base = got // judge the next path on its own
		}
	}
}
