package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	tdgraph "github.com/tdgraph/tdgraph"
	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// ErrRecoveryGap reports durable state that cannot be reconstructed:
// the oldest WAL record the log still retains starts after the
// sequence the restored checkpoint (or checkpointless bootstrap)
// covers, so the updates in between are unrecoverable. Serving would
// silently omit them; NewPipeline refuses instead.
var ErrRecoveryGap = errors.New("serve: recovery gap between restored state and WAL")

// ErrFenced reports that this pipeline's authority has been revoked: a
// follower with a newer term has been promoted, and anything this
// (former) primary acknowledges from now on could be silently lost.
// Replication errors wrap it so one errors.Is answers the only question
// a leader has — "may I keep serving?" — with no.
var ErrFenced = errors.New("serve: primary fenced by a newer term")

// RetentionAdvisor lets the replication layer narrow WAL retention: it
// reports the highest sequence retention may truncate through without
// orphaning replication — below every live follower's acknowledged
// position and any snapshot transfer still in flight. ok=false means
// replication imposes no constraint (no live followers) and the local
// generation rule alone decides, which is exactly the solo behavior.
// The interface lives here so serve never imports the transport; a
// leader installs its replica.Primary with SetRetentionAdvisor.
type RetentionAdvisor interface {
	RetainFloor() (floor uint64, ok bool)
}

// PipelineConfig wires the durable core together.
type PipelineConfig struct {
	// Bootstrap builds the fresh session serving starts from when no
	// checkpoint generation is recoverable (first boot, or every
	// generation corrupt): the state at sequence zero.
	Bootstrap func() (*tdgraph.Session, error)
	// Algorithm restores checkpoints; it must match the one Bootstrap
	// configures (same parameters).
	Algorithm tdgraph.Algorithm
	// SessionOptions apply to restored sessions.
	SessionOptions tdgraph.SessionOptions
	// WAL configures the write-ahead log (Dir must exist).
	WAL wal.Options
	// CheckpointPath roots the rotating checkpoint generations; empty
	// disables checkpointing (the WAL alone carries recovery).
	CheckpointPath string
	// CheckpointKeep is the generations retained (default 2).
	CheckpointKeep int
	// CheckpointEvery checkpoints after every N ingested batches
	// (default 16; <0 disables periodic checkpoints).
	CheckpointEvery int
	// Collector receives the pipeline's counters (nil = private).
	Collector *stats.Collector
	// Clock is the time source deadline checks run on (default the real
	// clock; tests inject a fake).
	Clock Clock
	// DiskLowWater enables the disk-pressure ladder: when the WAL
	// volume's free space (via the FS's wal.FreeSpacer probe) drops
	// below it, the pipeline first advances WAL retention and then
	// refuses new ingest with ErrDiskPressure — read-only mode. 0 (the
	// default) disables the probe-driven gate; a hard ENOSPC from the
	// filesystem still degrades to read-only either way.
	DiskLowWater uint64
	// DiskHighWater is the resume threshold (default 2×DiskLowWater):
	// read-only mode exits once free space climbs back above it. The
	// gap is hysteresis — without it the pipeline would flap at the
	// boundary.
	DiskHighWater uint64
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.CheckpointKeep <= 0 {
		c.CheckpointKeep = 2
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 16
	}
	if c.Collector == nil {
		c.Collector = stats.NewCollector()
	}
	if c.Clock == nil {
		c.Clock = RealClock{}
	}
	if c.DiskHighWater == 0 {
		c.DiskHighWater = 2 * c.DiskLowWater
	}
	return c
}

// IngestError locates a pipeline failure by stage, so the supervisor
// knows whether the batch reached the log: "admit" failures refused
// the batch before any I/O (deadline already expired, or disk
// pressure) and "wal" failures happened before the record was written
// — in both the batch is nowhere and must be re-sent — while
// "wal-sync" failures happened after the record was written but
// before its fsync barrier completed — the bytes are in the log and
// may survive, so re-sending would double-apply; recovery (or a
// same-sequence retry) owns the batch instead. "checkpoint" failures
// happen strictly after durability (recovery replays the batch from
// the log). errors.Is/As see through to the underlying cause.
type IngestError struct {
	Seq   uint64
	Stage string // "admit" | "wal" | "wal-sync" | "checkpoint"
	Err   error
}

func (e *IngestError) Error() string {
	return fmt.Sprintf("serve: ingest seq %d: %s stage: %v", e.Seq, e.Stage, e.Err)
}

func (e *IngestError) Unwrap() error { return e.Err }

// Durable reports whether the failed batch's record reached the WAL
// file when the error struck — if so, replay can resurrect it and the
// source must NOT re-send it. Only "admit" (refused outright) and
// "wal" (pre-write) failures leave the batch safe to re-send;
// "wal-sync" failures wrote the record without completing its
// barrier, so they count as reached.
func (e *IngestError) Durable() bool { return e.Stage != "wal" && e.Stage != "admit" }

// Pipeline is the synchronous durable core of the serve loop: one
// goroutine feeds it admitted batches, and every batch is appended to
// the write-ahead log (fsynced per policy) before it touches the
// session. Checkpoints are cut every CheckpointEvery batches with the
// covered sequence stored in the generation's own meta block, and
// WAL retention advances only past the OLDEST retained generation, so
// a fallback restore always finds its replay tail.
type Pipeline struct {
	cfg  PipelineConfig
	sess *tdgraph.Session
	log  *wal.Log
	ck   *tdgraph.Checkpointer
	// seq is the last ingested (or replayed) sequence. It is written
	// only by the single ingesting goroutine but read concurrently by
	// replication probe answers, hence atomic.
	seq       atomic.Uint64
	col       *stats.Collector
	retention RetentionAdvisor // nil unless this member leads a cluster

	sinceCkpt int

	// readOnly flags disk-pressure degradation: ingest is refused,
	// reads (and the replica layer's heartbeats) keep flowing. Written
	// by the ingesting goroutine, read by status probes, hence atomic.
	readOnly atomic.Bool
	// spaceCompacted remembers that retention was already advanced for
	// the current pressure episode — compacting again before new
	// checkpoints exist frees nothing.
	spaceCompacted bool
}

// NewPipeline recovers the durable state and returns a pipeline ready
// to ingest: newest checkpoint generation with valid metadata (or
// Bootstrap when none), torn-tail WAL repair, then replay of every
// logged batch past the checkpoint. Recovery is deterministic: the
// rebuilt session is byte-identical to one that processed the same
// durable prefix without crashing.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	p := &Pipeline{cfg: cfg, col: cfg.Collector}

	// Rung 1: newest recoverable checkpoint generation, which carries
	// the WAL sequence it covers.
	if cfg.CheckpointPath != "" {
		p.ck = &tdgraph.Checkpointer{Path: cfg.CheckpointPath, Keep: cfg.CheckpointKeep}
		sess, meta, skipped, err := p.ck.LoadWithMeta(cfg.Algorithm, cfg.SessionOptions)
		if err == nil {
			seq, derr := decodeSeqMeta(meta)
			if derr != nil {
				return nil, derr
			}
			p.sess = sess
			p.seq.Store(seq)
			for range skipped {
				p.col.Inc(stats.CtrCheckpointRecovered)
			}
		}
	}
	if p.sess == nil {
		sess, err := cfg.Bootstrap()
		if err != nil {
			return nil, fmt.Errorf("serve: bootstrap: %w", err)
		}
		p.sess = sess
		p.seq.Store(0)
	}

	// Rung 2: open the WAL, repairing any torn tail.
	l, rec, err := wal.Open(cfg.WAL)
	if err != nil {
		return nil, err
	}
	p.log = l
	if rec.Repaired() {
		p.col.Inc(stats.CtrWALTornRecovered)
	}

	// The restored state and the retained log must meet: if the oldest
	// surviving WAL record starts after the next sequence we need —
	// every checkpoint generation was unrecoverable but retention had
	// already truncated past them, say — the prefix is gone for good,
	// and serving would silently compute wrong state. Fail loudly.
	if first := l.FirstSeq(); first > p.seq.Load()+1 {
		return nil, fmt.Errorf("%w: restored state covers seq %d but the oldest retained WAL record is seq %d; updates %d..%d are unrecoverable",
			ErrRecoveryGap, p.seq.Load(), first, p.seq.Load()+1, first-1)
	}

	// Rung 3: replay every durable batch the checkpoint doesn't cover.
	err = l.Replay(p.seq.Load()+1, func(seq uint64, batch []graph.Update) error {
		p.applyLogged(batch)
		p.col.Inc(stats.CtrWALReplayed)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if last := l.LastSeq(); last > p.seq.Load() {
		p.seq.Store(last)
	}
	return p, nil
}

// Session exposes the live session (read-only use: states, stats).
func (p *Pipeline) Session() *tdgraph.Session { return p.sess }

// Seq returns the last ingested sequence.
func (p *Pipeline) Seq() uint64 { return p.seq.Load() }

// Collector returns the pipeline's counter set.
func (p *Pipeline) Collector() *stats.Collector { return p.col }

// SetRetentionAdvisor installs (or clears, with nil) the replication
// layer's say in WAL retention. It is a setter, not configuration: a
// member starts leading, and stops, long after its pipeline was built.
func (p *Pipeline) SetRetentionAdvisor(ra RetentionAdvisor) { p.retention = ra }

// applyLogged applies a batch that is already durable. Failures a
// deterministic replay would reproduce — validation rejections,
// recovered panics (the session self-heals) — are absorbed and
// counted, exactly as the live path absorbs them, so a recovered
// pipeline converges to the same states as an uninterrupted one.
func (p *Pipeline) applyLogged(batch []graph.Update) {
	_, err := p.sess.ApplyBatch(batch)
	if err == nil {
		return
	}
	var pe *tdgraph.PanicError
	if errors.As(err, &pe) {
		return // self-healed inside the session; the counters already track it
	}
	p.col.Inc(stats.CtrServeRejected)
}

// Ingest makes one batch durable and applies it — the solo serving
// path: encode, Append, then Apply, as a group of one. The returned
// error is always an *IngestError whose Stage says whether the batch got
// as far as the log. A cluster leader runs the same two halves with the
// quorum round between them (replica.Primary.Ingest), on the payloads it
// received.
func (p *Pipeline) Ingest(batch []graph.Update) error {
	if _, err := p.Append([][]byte{wal.EncodeBatch(batch)}, time.Time{}); err != nil {
		return err
	}
	return p.Apply([][]graph.Update{batch})
}

// Append is the first half of ingest, for a commit group of k >= 1
// batches: admission (disk pressure, then the group's deadline — zero
// means none), then ONE WAL append of their wal.EncodeBatch payloads
// with one policy fsync for all of them. It returns the sequence the
// first was logged at; the rest follow it. A refusal or failure is an
// *IngestError and leaves the sequence where it was: "admit" and "wal"
// stages put nothing in the log (re-send freely; an expired deadline
// wraps ErrDeadline), "wal-sync" wrote the records without completing
// their barrier.
func (p *Pipeline) Append(payloads [][]byte, deadline time.Time) (uint64, error) {
	first := p.seq.Load() + 1
	if dpe := p.checkDiskPressure(); dpe != nil {
		p.col.Inc(stats.CtrServeDiskPressure)
		return 0, &IngestError{Seq: first, Stage: "admit", Err: dpe}
	}
	if !deadline.IsZero() && !p.cfg.Clock.Now().Before(deadline) {
		p.col.Inc(stats.CtrServeDeadlineExpired)
		return 0, &IngestError{Seq: first, Stage: "admit", Err: &DeadlineError{Stage: "admit"}}
	}
	return first, p.appendAt(first, payloads)
}

// appendAt logs payloads at first, first+1, … and only then — past the
// group's one barrier — advances the pipeline's sequence to the last:
// Seq() never names a record that is not yet durable under the policy.
func (p *Pipeline) appendAt(first uint64, payloads [][]byte) error {
	if err := p.log.AppendGroup(first, payloads); err != nil {
		return p.walIngestError(first, err)
	}
	// With no probe configured, a write that fits again IS the
	// free-space signal: clear ENOSPC-driven read-only mode.
	p.spaceCompacted = false
	if p.cfg.DiskLowWater == 0 && p.readOnly.Load() {
		p.readOnly.Store(false)
		p.col.Inc(stats.CtrServeReadonlyExits)
	}
	p.seq.Store(first + uint64(len(payloads)) - 1)
	p.col.Add(stats.CtrWALAppends, uint64(len(payloads)))
	return nil
}

// checkDiskPressure is the admission rung of the degradation ladder.
// Below DiskLowWater it first advances WAL retention (compaction may
// free real space, once per episode), then enters read-only and
// returns a *DiskPressureError; once read-only, it holds until free
// space clears DiskHighWater. Disabled when no low-water mark or no
// free-space probe is configured.
func (p *Pipeline) checkDiskPressure() *DiskPressureError {
	low, high := p.cfg.DiskLowWater, p.cfg.DiskHighWater
	if low == 0 {
		return nil
	}
	free, ok := p.log.FreeSpace()
	if !ok {
		return nil
	}
	if p.readOnly.Load() {
		if free >= high {
			p.readOnly.Store(false)
			p.spaceCompacted = false
			p.col.Inc(stats.CtrServeReadonlyExits)
			return nil
		}
	} else if free >= low {
		p.spaceCompacted = false
		return nil
	} else {
		if !p.spaceCompacted {
			p.spaceCompacted = true
			_ = p.advanceRetention() // best effort: freeing needs no new writes
			if free, ok = p.log.FreeSpace(); ok && free >= low {
				return nil
			}
		}
		p.readOnly.Store(true)
		p.col.Inc(stats.CtrServeReadonlyEntries)
	}
	return &DiskPressureError{Op: "admit", Free: free, LowWater: low}
}

// walIngestError classifies an Append failure. ENOSPC is special: the
// record never persisted (the log repaired its tail), so instead of
// letting the supervisor burn retries and poison the batch, the
// pipeline advances retention once, enters read-only, and returns a
// retryable error wrapping ErrDiskPressure.
func (p *Pipeline) walIngestError(seq uint64, err error) error {
	var nd *wal.NotDurableError
	if errors.As(err, &nd) {
		// The record is in the log file; only its fsync barrier (or
		// rotation) failed. Re-sending it as a new sequence would
		// double-apply it on replay, so the supervisor must restart
		// and recover instead.
		return &IngestError{Seq: seq, Stage: "wal-sync", Err: err}
	}
	if wal.IsNoSpace(err) {
		if !p.spaceCompacted {
			p.spaceCompacted = true
			_ = p.advanceRetention()
		}
		if !p.readOnly.Load() {
			p.readOnly.Store(true)
			p.col.Inc(stats.CtrServeReadonlyEntries)
		}
		p.col.Inc(stats.CtrServeDiskPressure)
		free, _ := p.log.FreeSpace()
		return &IngestError{Seq: seq, Stage: "admit",
			Err: fmt.Errorf("%w: %w", &DiskPressureError{Op: "append", Free: free, LowWater: p.cfg.DiskLowWater}, err)}
	}
	return &IngestError{Seq: seq, Stage: "wal", Err: err}
}

// IngestReplicated is the follower-side twin of Ingest: the same two
// halves for the group of records the primary shipped at first,
// first+1, … (their payloads, logged verbatim in one append, and the
// batches decoded from them), with contiguity against what this replica
// already holds in place of admission. The caller (the replication
// session) acks only after a nil return, so an ack always means "durable
// here and applied through the path recovery replays".
func (p *Pipeline) IngestReplicated(first uint64, payloads [][]byte, batches [][]graph.Update) error {
	if first != p.seq.Load()+1 {
		return &IngestError{Seq: first, Stage: "wal",
			Err: fmt.Errorf("replicated batch seq %d does not follow local seq %d", first, p.seq.Load())}
	}
	if err := p.appendAt(first, payloads); err != nil {
		return err
	}
	return p.Apply(batches)
}

// Apply is the second half of ingest, for the group Append (or
// appendAt) just logged: one session apply per batch, in order, then
// the count and the periodic checkpoint — cut only here, at the group's
// boundary, because a generation is labelled with Seq(), which already
// names the group's last record while its batches are still being
// applied.
func (p *Pipeline) Apply(batches [][]graph.Update) error {
	for _, batch := range batches {
		p.applyLogged(batch)
	}
	p.col.Add(stats.CtrServeIngested, uint64(len(batches)))
	p.col.Inc(stats.CtrServeRounds)

	if p.ck != nil && p.cfg.CheckpointEvery > 0 {
		p.sinceCkpt += len(batches)
		if p.sinceCkpt >= p.cfg.CheckpointEvery {
			if err := p.Checkpoint(); err != nil {
				if wal.IsNoSpace(err) {
					// Degrade, never poison: the group is durable in the WAL
					// and applied, only the checkpoint generation could not
					// be cut. Keep serving on the log alone — sinceCkpt stays
					// past the threshold so every round retries, and sustained
					// pressure turns into read-only at the admission gate.
					return nil
				}
				return &IngestError{Seq: p.seq.Load(), Stage: "checkpoint", Err: err}
			}
		}
	}
	return nil
}

// Checkpoint cuts a generation now: WAL barrier, rotate + save with
// the covered sequence in-band, then advance WAL retention past the
// oldest retained generation.
func (p *Pipeline) Checkpoint() error {
	if p.ck == nil {
		return nil
	}
	// The checkpoint must never cover more than the log can replay:
	// fsync first so every covered batch is durable.
	if err := p.log.Sync(); err != nil {
		return err
	}
	if err := p.ck.SaveWithMeta(p.sess, encodeSeqMeta(p.seq.Load())); err != nil {
		return err
	}
	p.sinceCkpt = 0
	p.col.Inc(stats.CtrServeCheckpoints)
	return p.advanceRetention()
}

// advanceRetention truncates WAL segments nothing can still need: the
// oldest retained checkpoint generation pins the replay tail, and
// replication (when present) pins it further — no live follower's
// catch-up, and no snapshot transfer in flight, may be truncated out
// from under it. A follower that nonetheless rejoins from below the
// floor is reseeded from a checkpoint, not served from the log, which
// is what lets retention advance past shipped checkpoints at all
// instead of pinning the log to the slowest replica forever. The
// disk-pressure ladder calls this directly ("compact harder") because
// it frees space without writing anything new.
func (p *Pipeline) advanceRetention() error {
	if p.ck == nil {
		return nil
	}
	oldest := p.seq.Load()
	for _, m := range p.ck.Metas() {
		if m == nil {
			continue
		}
		if seq, err := decodeSeqMeta(m); err == nil && seq < oldest {
			oldest = seq
		}
	}
	if p.retention != nil {
		if floor, bound := p.retention.RetainFloor(); bound && floor < oldest {
			oldest = floor
		}
	}
	if err := p.log.TruncateThrough(oldest); err != nil {
		return err
	}
	p.syncWALStats()
	return nil
}

// CanInstallSnapshot reports whether this pipeline can adopt a shipped
// snapshot: it needs a checkpoint path to install the file into, or
// the installed state would not survive its next restart.
func (p *Pipeline) CanInstallSnapshot() bool { return p.ck != nil }

// InstallSnapshot replaces the pipeline's entire durable state with a
// shipped checkpoint: the engine-portable checkpoint file at tmpPath,
// which must say in-band that it covers seq, the sequence it was
// offered under. The order keeps every crash point recoverable. The
// new session is loaded first — validating the file end to end, and
// its sequence against the offer, while the old state is still
// authoritative, so a corrupt or mislabelled snapshot changes nothing.
// Then the WAL is reset: its records either precede the snapshot
// (superseded) or extend a history the primary refused, and wiping
// them *before* the checkpoint becomes visible means no crash point can
// replay old records on top of new state. Only after the checkpoint
// file is durably installed is the in-memory session swapped; a crash
// between reset and install recovers to an older (or bootstrap) state
// that simply reseeds again.
func (p *Pipeline) InstallSnapshot(tmpPath string, seq uint64) error {
	if p.ck == nil {
		return fmt.Errorf("serve: snapshot install needs a checkpoint path")
	}
	// One generation at tmpPath: the same load recovery will run on it.
	incoming := tdgraph.Checkpointer{Path: tmpPath, Keep: 1}
	sess, meta, _, err := incoming.LoadWithMeta(p.cfg.Algorithm, p.cfg.SessionOptions)
	if err != nil {
		return err
	}
	got, err := decodeSeqMeta(meta)
	if err == nil && got != seq {
		err = fmt.Errorf("serve: snapshot offered at seq %d says in-band that it covers seq %d", seq, got)
	}
	if err != nil {
		sess.Close()
		return err
	}
	if err := p.log.Reset(); err != nil {
		sess.Close()
		return err
	}
	if err := p.ck.Install(tmpPath); err != nil {
		sess.Close()
		return err
	}
	p.sess.Close() // quiesce: park the replaced engine's worker pool
	p.sess = sess
	p.seq.Store(seq)
	p.sinceCkpt = 0
	p.syncWALStats()
	return nil
}

// Close drains the pipeline durably: final WAL barrier, final
// checkpoint generation, close the log. The final checkpoint makes the
// next boot instant (nothing to replay) but its absence is safe — the
// log alone recovers everything.
func (p *Pipeline) Close() error {
	var firstErr error
	if err := p.log.Sync(); err != nil {
		firstErr = err
	}
	if p.ck != nil && firstErr == nil {
		if err := p.Checkpoint(); err != nil {
			firstErr = err
		}
	}
	if err := p.log.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	p.sess.Close() // park the native engine's worker pool, if any
	p.syncWALStats()
	return firstErr
}

func (p *Pipeline) syncWALStats() {
	ls := p.log.Stats()
	p.col.Set(stats.CtrWALFsyncs, ls.Fsyncs)
	p.col.Set(stats.CtrWALRotations, ls.Rotations)
	p.col.Set(stats.CtrWALRetained, ls.Removed)
}

// encodeSeqMeta / decodeSeqMeta frame the one fact a checkpoint needs
// alongside its states: the WAL sequence it covers.
func encodeSeqMeta(seq uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	return b[:]
}

func decodeSeqMeta(meta []byte) (uint64, error) {
	if len(meta) != 8 {
		return 0, fmt.Errorf("serve: checkpoint meta is %d bytes, want 8", len(meta))
	}
	return binary.LittleEndian.Uint64(meta), nil
}
