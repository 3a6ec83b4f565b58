package tdgraph_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/replica"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// TestErrorWrappingContracts is the %w audit made executable: every
// typed error in the durability ladder must keep its chain intact so
// callers can dispatch with errors.Is / errors.As instead of string
// matching. Each row wraps a cause, then asserts both directions.
func TestErrorWrappingContracts(t *testing.T) {
	cause := errors.New("root cause")

	for _, tc := range []struct {
		name string
		err  error
		// sentinels that errors.Is must find through the chain
		is []error
		// exactly one of the as* checks runs per row
		as func(error) bool
	}{
		{
			name: "CheckpointError keeps its stage cause",
			err:  &tdgraph.CheckpointError{Stage: "header", Err: fmt.Errorf("reading: %w", cause)},
			is:   []error{cause},
			as: func(err error) bool {
				var ce *tdgraph.CheckpointError
				return errors.As(err, &ce) && ce.Stage == "header"
			},
		},
		{
			name: "CheckpointError truncated sentinel",
			err:  &tdgraph.CheckpointError{Stage: "state", Err: fmt.Errorf("%w: %w", tdgraph.ErrCheckpointTruncated, io.ErrUnexpectedEOF)},
			is:   []error{tdgraph.ErrCheckpointTruncated, io.ErrUnexpectedEOF},
		},
		{
			name: "WatchdogError exposes the context cause",
			err:  fmt.Errorf("run aborted: %w", &sim.WatchdogError{Err: context.DeadlineExceeded}),
			is:   []error{context.DeadlineExceeded},
			as: func(err error) bool {
				var we *sim.WatchdogError
				return errors.As(err, &we)
			},
		},
		{
			name: "WatchdogError cancellation",
			err:  &sim.WatchdogError{Err: context.Canceled},
			is:   []error{context.Canceled},
		},
		{
			name: "wal LogError carries segment context and sentinel",
			err:  &wal.LogError{Segment: "000.wal", Offset: 64, Err: wal.ErrCorrupt},
			is:   []error{wal.ErrCorrupt},
			as: func(err error) bool {
				var le *wal.LogError
				return errors.As(err, &le) && le.Offset == 64
			},
		},
		{
			name: "injected WAL fault survives the log wrapper",
			err:  &wal.LogError{Segment: "000.wal", Err: fmt.Errorf("fault: torn write: %w", fault.ErrInjected)},
			is:   []error{fault.ErrInjected},
		},
		{
			name: "IngestError chains through to the WAL layer",
			err: &serve.IngestError{Seq: 7, Stage: "wal", Err: &wal.LogError{
				Segment: "000.wal", Err: fmt.Errorf("append: %w", fault.ErrInjected)}},
			is: []error{fault.ErrInjected},
			as: func(err error) bool {
				var ie *serve.IngestError
				var le *wal.LogError
				return errors.As(err, &ie) && !ie.Durable() && errors.As(err, &le)
			},
		},
		{
			name: "post-write WAL failure chains as durable-class not-durable",
			err: &serve.IngestError{Seq: 9, Stage: "wal-sync", Err: &wal.NotDurableError{
				Err: &wal.LogError{Segment: "000.wal", Err: cause}}},
			is: []error{cause},
			as: func(err error) bool {
				var ie *serve.IngestError
				var nd *wal.NotDurableError
				var le *wal.LogError
				return errors.As(err, &ie) && ie.Durable() &&
					errors.As(err, &nd) && errors.As(err, &le)
			},
		},
		{
			name: "recovery gap sentinel survives wrapping",
			err:  fmt.Errorf("boot: %w", fmt.Errorf("%w: oldest retained record is seq 42", serve.ErrRecoveryGap)),
			is:   []error{serve.ErrRecoveryGap},
		},
		{
			name: "source exhaustion keeps the final delivery error",
			err:  fmt.Errorf("%w after 8 attempts: %w", replica.ErrGivenUp, cause),
			is:   []error{replica.ErrGivenUp, cause},
		},
		{
			// The next two are what Primary.Ingest returns beside a
			// LoggedNotQuorum outcome (the outcome values themselves are
			// pinned by TestQuorumLostHaltsPrimary): the quorum round's own
			// error, unwrapped by any stage label.
			name: "stale term fences through the replicate stage",
			err:  fmt.Errorf("%w: follower moved to term 3, ours is 2", replica.ErrStaleTerm),
			is:   []error{replica.ErrStaleTerm, serve.ErrFenced},
		},
		{
			name: "quorum loss is durable-class but not fencing",
			err:  fmt.Errorf("%w: 1 of 2 required acks for seq 12", replica.ErrQuorumLost),
			is:   []error{replica.ErrQuorumLost},
			as: func(err error) bool {
				// A quorum failure must NOT read as a fencing: the leader
				// strands its tail and steps down either way, but only a
				// fencing names a successor term in the event trail.
				return !errors.Is(err, serve.ErrFenced)
			},
		},
		{
			name: "diverged follower is neither fencing nor behind",
			err: fmt.Errorf("handshake: %w",
				fmt.Errorf("%w: follower at seq 3, our log ends at 2", replica.ErrFollowerDiverged)),
			is: []error{replica.ErrFollowerDiverged},
			as: func(err error) bool {
				// Divergence needs a reseed, not a wait (quorum), a catch-up
				// (behind), or a shutdown (fenced) — it must stay distinct
				// from all three so supervisors route it correctly.
				return !errors.Is(err, serve.ErrFenced) &&
					!errors.Is(err, replica.ErrFollowerBehind) &&
					!errors.Is(err, replica.ErrQuorumLost)
			},
		},
		{
			name: "follower-behind keeps the compaction cause",
			err:  fmt.Errorf("catch-up: %w", fmt.Errorf("%w: needs seq 3: %w", replica.ErrFollowerBehind, wal.ErrCompacted)),
			is:   []error{replica.ErrFollowerBehind, wal.ErrCompacted},
		},
		{
			name: "frame error carries the malformed-frame sentinel",
			err: fmt.Errorf("session: %w", &replica.FrameError{Reason: "bad checksum",
				Err: fmt.Errorf("%w: frame checksum mismatch", replica.ErrBadFrame)}),
			is: []error{replica.ErrBadFrame},
			as: func(err error) bool {
				var fe *replica.FrameError
				return errors.As(err, &fe) && fe.Reason == "bad checksum"
			},
		},
		{
			name: "tailer compaction sentinel survives wrapping",
			err:  fmt.Errorf("replicator: %w", fmt.Errorf("%w: want seq 2, oldest is 9", wal.ErrCompacted)),
			is:   []error{wal.ErrCompacted},
		},
		{
			// The shape AddFollower produces when a diverged follower's
			// reseed then fails: the supervisor must see both why the
			// reseed started (divergence) and how it ended (abort with the
			// transport cause), through one chain.
			name: "reseed abort keeps divergence visible",
			err: fmt.Errorf("%w; reseed failed: %w",
				fmt.Errorf("%w: follower at seq 10, our log ends at 5", replica.ErrFollowerDiverged),
				fmt.Errorf("%w: shipping chunk at 128: %w", replica.ErrReseedAborted, cause)),
			is: []error{replica.ErrFollowerDiverged, replica.ErrReseedAborted, cause},
			as: func(err error) bool {
				// An aborted transfer is retryable as-is; it must stay
				// distinct from fencing (shut down) and from a corrupt
				// snapshot (discard the partial, never resume it).
				return !errors.Is(err, serve.ErrFenced) &&
					!errors.Is(err, replica.ErrSnapshotCorrupt)
			},
		},
		{
			name: "corrupt snapshot is not a resumable abort",
			err: fmt.Errorf("install: %w",
				fmt.Errorf("%w: checksum 0xdead, offer said 0xbeef", replica.ErrSnapshotCorrupt)),
			is: []error{replica.ErrSnapshotCorrupt},
			as: func(err error) bool {
				// Resuming a poisoned partial would re-install poison: the
				// corrupt path discards and restarts, so the sentinel must
				// never read as the resumable abort.
				return !errors.Is(err, replica.ErrReseedAborted)
			},
		},
		{
			name: "behind-retention reseed failure keeps all causes",
			err: fmt.Errorf("%w; reseed failed: %w",
				fmt.Errorf("catch-up: %w: needs seq 3: %w", replica.ErrFollowerBehind, wal.ErrCompacted),
				fmt.Errorf("%w: follower rejected the offer", replica.ErrReseedAborted)),
			is: []error{replica.ErrFollowerBehind, wal.ErrCompacted, replica.ErrReseedAborted},
		},
		{
			name: "lease expiry sentinel survives the role loop",
			err:  fmt.Errorf("follower: %w after 4 missed heartbeats", replica.ErrLeaseExpired),
			is:   []error{replica.ErrLeaseExpired},
		},
		{
			name: "lost election keeps the outranking peer's reason",
			err: fmt.Errorf("candidacy at term 3: %w",
				fmt.Errorf("%w: peer beta holds a richer log", replica.ErrElectionLost)),
			is: []error{replica.ErrElectionLost},
			as: func(err error) bool {
				// Losing an election is not a quorum failure: the loser saw
				// its peers, it just got outranked.
				return !errors.Is(err, replica.ErrQuorumLost)
			},
		},
		{
			name: "deadline expiry keeps its stage through the ingest chain",
			err: fmt.Errorf("replica: 2 of 3 acks for seq 14 when the batch deadline expired: %w",
				serve.NewDeadlineError("replicate")),
			is: []error{serve.ErrDeadline},
			as: func(err error) bool {
				var de *serve.DeadlineError
				// Retryable by design: a deadline is a budget event, never a
				// fencing or a quorum-health verdict.
				return errors.As(err, &de) && de.Stage == "replicate" &&
					!errors.Is(err, serve.ErrFenced) &&
					!errors.Is(err, replica.ErrQuorumLost)
			},
		},
		{
			name: "admit-stage deadline refusal is non-durable",
			err:  &serve.IngestError{Seq: 15, Stage: "admit", Err: serve.NewDeadlineError("admit")},
			is:   []error{serve.ErrDeadline},
			as: func(err error) bool {
				var ie *serve.IngestError
				return errors.As(err, &ie) && !ie.Durable()
			},
		},
		{
			name: "disk pressure keeps the ENOSPC cause through admit",
			err: &serve.IngestError{Seq: 16, Stage: "admit",
				Err: fmt.Errorf("%w: %w",
					&serve.DiskPressureError{Op: "append", LowWater: 4096},
					fmt.Errorf("append: %w", wal.ErrNoSpace))},
			is: []error{serve.ErrDiskPressure, wal.ErrNoSpace},
			as: func(err error) bool {
				var dpe *serve.DiskPressureError
				var ie *serve.IngestError
				return errors.As(err, &dpe) && dpe.Op == "append" &&
					errors.As(err, &ie) && !ie.Durable()
			},
		},
		{
			name: "busy reject for disk reads as disk pressure with a hint",
			err:  fmt.Errorf("submit: %w", &replica.BusyError{Reason: "disk", RetryAfter: 250 * 1e6}),
			is:   []error{serve.ErrDiskPressure},
			as: func(err error) bool {
				var be *replica.BusyError
				// The hint must survive wrapping: the client's retry loop
				// floors its backoff at it. And a busy leader is NOT a redirect.
				return errors.As(err, &be) && be.RetryAfter > 0 &&
					!errors.Is(err, replica.ErrNotLeader)
			},
		},
		{
			name: "busy reject for SLO pressure reads as shed",
			err:  fmt.Errorf("submit: %w", &replica.BusyError{Reason: "slo", RetryAfter: 1e6}),
			is:   []error{serve.ErrShed},
			as: func(err error) bool {
				return !errors.Is(err, serve.ErrDiskPressure)
			},
		},
		{
			name: "redirect carries the leader hint behind ErrNotLeader",
			err:  fmt.Errorf("submit: %w", &replica.RedirectError{Leader: "beta:7400"}),
			is:   []error{replica.ErrNotLeader},
			as: func(err error) bool {
				var re *replica.RedirectError
				return errors.As(err, &re) && re.Leader == "beta:7400"
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sentinel := range tc.is {
				if !errors.Is(tc.err, sentinel) {
					t.Errorf("errors.Is(%v, %v) = false", tc.err, sentinel)
				}
			}
			if tc.as != nil && !tc.as(tc.err) {
				t.Errorf("errors.As lost the typed error in %v", tc.err)
			}
		})
	}
}

// TestPanicErrorIsTyped: a recovered engine panic surfaces as
// *PanicError via errors.As at the API boundary.
func TestPanicErrorIsTyped(t *testing.T) {
	err := fmt.Errorf("batch 3: %w", &tdgraph.PanicError{Op: "ApplyBatch", Value: "boom"})
	var pe *tdgraph.PanicError
	if !errors.As(err, &pe) || pe.Op != "ApplyBatch" {
		t.Fatalf("PanicError lost through wrapping: %v", err)
	}
}
