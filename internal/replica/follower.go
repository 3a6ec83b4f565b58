package replica

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// FollowerConfig parameterises the receiving side.
type FollowerConfig struct {
	// Pipeline is the follower's own durable pipeline configuration —
	// the same shape a leader uses, so promotion is just "start
	// serving". The WAL sync policy is forced to SyncEachBatch: an
	// acknowledgement must mean fsynced, whatever the config says.
	Pipeline serve.PipelineConfig
	// OnLiveness is called with the session term each time the serving
	// primary proves it is alive — at the handshake, on every heartbeat,
	// and on every record. The automation layer renews its lease here;
	// nil ignores liveness. Called from the session goroutine.
	OnLiveness func(term uint64)
	// OnLeader is called when a handshake durably adopts a new term,
	// with the primary's advertised address (possibly empty). The
	// automation layer uses it to learn who to redirect clients to and
	// to step down if it thought it was the leader itself. Called from
	// the session goroutine, after the term is durable.
	OnLeader func(term uint64, addr string)
	// OnEvent receives one line per notable event (nil discards).
	OnEvent func(string)
}

// Follower applies replicated batches through its own serve.Pipeline —
// WAL append, fsync, live apply path — and acknowledges each commit
// group only after all three, so a primary counting its ack counts a
// replica that could be promoted this instant. Recovery after a
// follower crash is the pipeline's ordinary recovery; nothing
// replication-specific survives a restart except the durable term.
type Follower struct {
	// sessionMu serialises the operations that move the pipeline:
	// replication sessions, snapshot installs, and promotions.
	sessionMu sync.Mutex
	// mu guards the fields probe answers and the session fence read
	// while a session is mid-flight: the durable term state and the
	// claimed bit. The pipeline position itself is pipe.Seq(), an atomic.
	mu   sync.Mutex
	cfg  FollowerConfig
	pipe *serve.Pipeline
	col  *stats.Collector
	fs   wal.FS
	dir  string
	// stage holds an incoming snapshot's partial file and its resume
	// mark: the checkpoint directory, so the install is a rename inside
	// one directory even when the WAL lives on another filesystem.
	stage string
	state TermState
	// claimed marks that this process itself promoted to state.Term —
	// it is that term's authority, so a second Hello claiming the same
	// term is a split brain, not a reconnect. Written under sessionMu
	// plus mu; read under either.
	claimed bool
	// recvFrame is the frame being read and group the commit group being
	// gathered from the session's records, both reused round after round
	// by the one session sessionMu admits; nothing downstream keeps a
	// reference into them.
	recvFrame []byte
	group     commitGroup
}

// NewFollower recovers the follower's durable state (checkpoint + WAL
// replay + stored term) and returns it ready to Serve.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.OnEvent == nil {
		cfg.OnEvent = func(string) {}
	}
	if cfg.OnLiveness == nil {
		cfg.OnLiveness = func(uint64) {}
	}
	if cfg.OnLeader == nil {
		cfg.OnLeader = func(uint64, string) {}
	}
	// Ack honesty: every acknowledged record must be on the platter.
	cfg.Pipeline.WAL.Sync = wal.SyncEachBatch
	pipe, err := serve.NewPipeline(cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	fs := wal.OrOS(cfg.Pipeline.WAL.FS)
	state, err := LoadTermState(fs, cfg.Pipeline.WAL.Dir)
	if err != nil {
		pipe.Close()
		return nil, err
	}
	return &Follower{
		cfg:   cfg,
		pipe:  pipe,
		col:   pipe.Collector(),
		fs:    fs,
		dir:   cfg.Pipeline.WAL.Dir,
		stage: pipe.StagingDir(),
		state: state,
	}, nil
}

// Pipeline exposes the follower's pipeline (states, stats, Close).
func (f *Follower) Pipeline() *serve.Pipeline { return f.pipe }

// Close waits for any in-flight replication session to unwind and then
// closes the pipeline, so a returned Close is a quiescence guarantee:
// no session is still applying records behind it. Sever the session's
// connection first (Node.Close does) or this blocks until the primary
// hangs up on its own.
func (f *Follower) Close() error {
	f.sessionMu.Lock()
	defer f.sessionMu.Unlock()
	//tdgraph:allow lockhold closing the pipeline is a move sessionMu serialises; its final checkpoint reads local generation headers, waiting only for the disk
	return f.pipe.Close()
}

// Seq returns the follower's last durable-and-applied sequence.
func (f *Follower) Seq() uint64 { return f.pipe.Seq() }

// Term returns the highest term this follower has durably accepted.
func (f *Follower) Term() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state.Term
}

// setState publishes a new durable term state to concurrent probe
// readers. Callers hold sessionMu.
func (f *Follower) setState(st TermState) {
	f.mu.Lock()
	f.state = st
	f.mu.Unlock()
}

// TailStamp returns the origin term of this follower's newest record
// (0 for un-ledgered history) — the first key of the up-to-dateness
// comparison elections run.
func (f *Follower) TailStamp() uint64 {
	seq := f.pipe.Seq()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state.At(seq)
}

// fences reports, from one locked read, whether a session claiming term
// must be refused, and the adopted term to refuse it with: a claim below
// it is a deposed primary, and an equal claim of a term this process
// itself promoted to is a split brain.
func (f *Follower) fences(term uint64) (adopted uint64, fenced bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state.Term, term < f.state.Term || (term == f.state.Term && f.claimed)
}

// AnswerProbeLeader writes one FrameState snapshot: durable term, last
// durable sequence, tail origin stamp, and the given leader address as
// the payload — the redirect hint an electing candidate or a lost
// client follows; the automation layer scopes the hint to its lease so
// candidates never chase a leader nobody has heard from. Probing adopts
// nothing and is safe while a replication session is mid-flight on
// another connection.
func (f *Follower) AnswerProbeLeader(conn net.Conn, leader string) error {
	seq := f.pipe.Seq()
	f.mu.Lock()
	fr := Frame{
		Type: FrameState, Term: f.state.Term, Seq: seq,
		Orig: f.state.At(seq), Payload: []byte(leader),
	}
	f.mu.Unlock()
	return WriteFrame(conn, fr)
}

// Serve runs one replication session on conn until the primary
// disconnects (nil), the transport dies (the I/O error), or the
// session must end for protocol reasons (ErrStaleTerm when the primary
// is deposed, ErrFollowerBehind on a sequence gap, ErrFollowerDiverged
// when the primary refuses this replica's log). It blocks the calling
// goroutine; sessions are serialised, and PromoteTo excludes them.
// Probes are answered, with no leader hint (Node owns the hint), before
// a session opens without blocking on an active one.
func (f *Follower) Serve(conn net.Conn) error {
	for {
		fr, err := ReadFrame(conn)
		if err != nil {
			return err
		}
		switch fr.Type {
		case FrameProbe:
			if err := f.AnswerProbeLeader(conn, ""); err != nil {
				return err
			}
		case FrameHello:
			return f.ServeSession(conn, fr)
		default:
			return &FrameError{Reason: "handshake",
				Err: fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, fr.Type)}
		}
	}
}

// ServeSession runs the replication session that hello opened, unless
// the fence refuses its claim (fences): a deposed primary or a split
// brain. An equal claim of a term adopted *from* a primary is that
// unique primary reconnecting — a dropped connection, a leader
// re-attaching after a transient failure — and is accepted without
// re-persisting anything. That trusts one process per term, which the
// claim rule gives only among candidates that reach each other (a
// candidate defers to any reached peer that outranks it or names a live
// leader, and claims max-of-probed+1): two candidates that cannot reach
// each other can each claim the same term over a quorum, and only the
// election splay keeps their claims apart (DESIGN.md, rung 8).
func (f *Follower) ServeSession(conn net.Conn, hello Frame) error {
	f.sessionMu.Lock()
	defer f.sessionMu.Unlock()

	if adopted, fenced := f.fences(hello.Term); fenced {
		f.col.Inc(stats.CtrReplFenceRejects)
		f.cfg.OnEvent(fmt.Sprintf("rejected primary with stale term %d (ours %d)", hello.Term, adopted))
		//tdgraph:allow lockhold the primary awaits this frame, reading under its AckTimeout
		WriteFrame(conn, Frame{Type: FrameReject, Term: adopted, Seq: f.pipe.Seq()})
		return fmt.Errorf("session with deposed primary (term %d <= %d): %w", hello.Term, adopted, ErrStaleTerm)
	}
	if hello.Term > f.state.Term {
		// Durably adopt the new term before welcoming: after a crash this
		// follower must still refuse the old primary.
		adopted := f.state
		adopted.Term = hello.Term
		adopted.Ledger = append([]TermBase(nil), f.state.Ledger...)
		if err := SaveTermState(f.fs, f.dir, adopted); err != nil {
			return err
		}
		f.setState(adopted)
	}
	f.mu.Lock()
	f.claimed = false
	f.mu.Unlock()
	f.cfg.OnLeader(hello.Term, string(hello.Payload))
	f.cfg.OnLiveness(hello.Term)
	//tdgraph:allow lockhold the primary awaits this frame, reading under its AckTimeout
	if err := WriteFrame(conn, Frame{
		Type: FrameWelcome, Term: f.state.Term, Seq: f.pipe.Seq(),
		Orig: f.state.At(f.pipe.Seq()),
	}); err != nil {
		return err
	}

	// A group the previous session left open died with it: nothing of it
	// was logged, and the primary re-ships from the Welcome sequence.
	f.group.reset()
	for {
		//tdgraph:allow lockhold a silent primary's session is severed by the node's lease monitor after LeaseTimeout, or by Node.Close, which ends this read
		fr, err := readFrameInto(conn, &f.recvFrame)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // primary closed the session cleanly
			}
			return err
		}
		isRecord := fr.Type == FrameRecord || fr.Type == FrameRecordMore
		if !isRecord && len(f.group.payloads) > 0 {
			// Only the group's own records may arrive while it is open.
			return &FrameError{Reason: "session",
				Err: fmt.Errorf("%w: frame type %d inside an open commit group", ErrBadFrame, fr.Type)}
		}
		if fr.Type == FrameReject {
			// The primary refused this replica's log at the handshake: it
			// diverges (a resurrected unacknowledged tail, typically) and
			// must be reseeded, not caught up. A primary with a snapshot
			// source sends FrameSnapOffer instead of this refusal.
			f.cfg.OnEvent(fmt.Sprintf("primary refused our log at its seq %d: reseed required", fr.Seq))
			return fmt.Errorf("%w: refused by primary at term %d (its log ends at %d, ours at %d)",
				ErrFollowerDiverged, fr.Term, fr.Seq, f.pipe.Seq())
		}
		if fr.Type == FrameSnapOffer {
			// The primary decided this replica cannot be served from its
			// log — diverged, or behind retention — and ships state
			// instead of refusing. Accepting it *is* the automatic
			// reseed: install atomically, reset the ledger to the shipped
			// history, and keep the session going; the primary resumes
			// ordinary records from the installed sequence.
			//tdgraph:allow lockhold an install is a pipeline move sessionMu serialises: its file writes wait only for the disk, and its answers are frames the primary awaits, reading under its AckTimeout
			if err := f.receiveSnapshot(conn, fr); err != nil {
				return err
			}
			continue
		}
		if fr.Type == FrameHeartbeat {
			// Liveness only: renew the lease, acknowledge nothing. A
			// heartbeat from a deposed primary fences it like a record
			// would.
			if fr.Term < f.state.Term {
				f.col.Inc(stats.CtrReplFenceRejects)
				//tdgraph:allow lockhold the session's one unasked frame, written as it ends: a few dozen bytes a socket buffers, which the primary's next ack wait reads under its AckTimeout
				WriteFrame(conn, Frame{Type: FrameReject, Term: f.state.Term, Seq: f.pipe.Seq()})
				return fmt.Errorf("heartbeat from deposed primary (term %d < %d): %w", fr.Term, f.state.Term, ErrStaleTerm)
			}
			f.cfg.OnLiveness(fr.Term)
			continue
		}
		if !isRecord {
			return &FrameError{Reason: "session",
				Err: fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, fr.Type)}
		}
		if fr.Term < f.state.Term {
			// The primary was deposed mid-session (we may have adopted a
			// newer term through another session meanwhile).
			f.col.Inc(stats.CtrReplFenceRejects)
			//tdgraph:allow lockhold the primary awaits this frame, reading under its AckTimeout
			f.refuseRecord(conn, fr)
			return fmt.Errorf("record from deposed primary (term %d < %d): %w", fr.Term, f.state.Term, ErrStaleTerm)
		}
		f.cfg.OnLiveness(fr.Term)
		// The open group's records are held, not logged: the next record
		// must follow them, not just the pipeline.
		held := f.pipe.Seq() + uint64(len(f.group.payloads))
		switch {
		case fr.Seq <= held:
			// Duplicate (retry, or a dup-injecting wire). One already durable
			// and closing its group is re-acked without re-applying; one that
			// is — or repeats a record held in — an open group is dropped in
			// silence, because a follower never writes mid-group.
			f.col.Inc(stats.CtrReplDupFrames)
			if fr.Type == FrameRecord && held == f.pipe.Seq() {
				//tdgraph:allow lockhold the primary awaits this frame, reading under its AckTimeout
				if err := WriteFrame(conn, Frame{Type: FrameAck, Term: f.state.Term, Seq: held}); err != nil {
					return err
				}
			}
		case fr.Seq > held+1:
			// A gap: records were lost on the wire. Refuse — the primary
			// re-ships the backlog from its WAL.
			//tdgraph:allow lockhold the primary awaits this frame, reading under its AckTimeout
			f.refuseRecord(conn, fr)
			return fmt.Errorf("%w: got seq %d with local seq %d", ErrFollowerBehind, fr.Seq, held)
		default:
			if err := f.stampOrigin(fr); err != nil {
				//tdgraph:allow lockhold the primary awaits this frame, reading under its AckTimeout
				f.refuseRecord(conn, fr)
				return err
			}
			// A record with more to come is copied out of the frame buffer
			// the next read reuses; the closing one is logged from it.
			if err := f.group.add(fr.Payload, fr.Type == FrameRecordMore); err != nil {
				return &FrameError{Reason: "record payload", Err: err}
			}
			if fr.Type == FrameRecordMore {
				continue
			}
			// The closing record: one write, one barrier, k applies, one ack.
			//tdgraph:allow lockhold the apply is a pipeline move sessionMu exists to serialise; its WAL write waits only for the disk, and the engine only for its own worker pool, which takes no lock
			err := f.pipe.IngestReplicated(fr.Seq+1-uint64(len(f.group.payloads)), f.group.payloads, f.group.batches)
			f.group.reset()
			if err != nil {
				return err
			}
			//tdgraph:allow lockhold the primary awaits this frame, reading under its AckTimeout
			if err := WriteFrame(conn, Frame{Type: FrameAck, Term: f.state.Term, Seq: f.pipe.Seq()}); err != nil {
				return err
			}
		}
	}
}

// refuseRecord answers a record the session cannot take with the Reject
// that tells the primary why — unless more of the record's group is still
// to come: the primary is then writing, not reading, and over a
// synchronous transport an answer now would block both ends. The session
// ending is answer enough; the next handshake says the rest.
func (f *Follower) refuseRecord(conn net.Conn, fr Frame) {
	if fr.Type == FrameRecord {
		WriteFrame(conn, Frame{Type: FrameReject, Term: f.state.Term, Seq: f.pipe.Seq()})
	}
}

// stampOrigin maintains the follower's term ledger as records arrive:
// the first record of each origin term opens a ledger range, persisted
// durably *before* the record itself — a crash in between leaves an
// entry whose base does not exist yet, which the next session's
// handshake simply never consults. An origin below our newest range is
// a contradiction (this primary's log attributes sequences we already
// hold to an older term than we stamped them with) and refuses the
// session rather than silently diverging. Origin 0 — un-ledgered
// history from a pre-replication log — is applied unstamped. Only a
// commit group's first record may open a range: its records are held, not
// logged, so a second range would put two entries ahead of the log, and a
// session cut there would leave a ledger whose tail refuses the re-shipped
// first record as diverged on every later attach. No primary sends such a
// group (catchUp); one that arrives is refused.
func (f *Follower) stampOrigin(fr Frame) error {
	tail := f.state.tail()
	switch {
	case fr.Orig == 0 || fr.Orig == tail:
		return nil
	case fr.Orig < tail:
		return fmt.Errorf("%w: record %d originates at term %d, our ledger is already at term %d",
			ErrFollowerDiverged, fr.Seq, fr.Orig, tail)
	case len(f.group.payloads) > 0:
		return &FrameError{Reason: "record origin",
			Err: fmt.Errorf("%w: record %d opens origin term %d inside a commit group", ErrBadFrame, fr.Seq, fr.Orig)}
	}
	stamped := f.state
	stamped.Ledger = append([]TermBase(nil), f.state.Ledger...)
	stamped.Stamp(fr.Orig, fr.Seq)
	if err := SaveTermState(f.fs, f.dir, stamped); err != nil {
		return err
	}
	f.setState(stamped)
	return nil
}

// PromoteTo makes this follower the authority for exactly term: the
// term is made durable (fencing every older primary that later
// reconnects), the ledger is stamped so records the new primary
// creates are attributed to it, and the term is returned for the
// caller to serve under. A term at or below the adopted one is refused
// with ErrStaleTerm — someone else claimed it first. The promoted log
// itself needs no truncation — every record it holds passed the frame
// and WAL CRCs, and an unacknowledged tail is simply extra batches the
// old primary never confirmed to its client — but the promotion is
// only safe for the *most-up-to-date* candidate, and the ledger is
// what enforces the rest: any replica whose log grew past or apart
// from the promoted one (a deposed primary resurrected by WAL replay,
// say) presents a conflicting tail stamp at its next handshake and is
// refused with ErrFollowerDiverged instead of converging by catch-up.
// Must not run while a Serve session is active (it excludes them via
// the same lock).
func (f *Follower) PromoteTo(term uint64) (uint64, error) {
	f.sessionMu.Lock()
	defer f.sessionMu.Unlock()
	if term <= f.state.Term {
		return 0, fmt.Errorf("cannot promote to term %d at adopted term %d: %w", term, f.state.Term, ErrStaleTerm)
	}
	promoted := f.state
	promoted.Ledger = append([]TermBase(nil), f.state.Ledger...)
	promoted.Term = term
	promoted.Stamp(promoted.Term, f.pipe.Seq()+1)
	if err := SaveTermState(f.fs, f.dir, promoted); err != nil {
		return 0, err
	}
	f.setState(promoted)
	f.mu.Lock()
	f.claimed = true
	f.mu.Unlock()
	f.col.Inc(stats.CtrReplFailovers)
	f.cfg.OnEvent(fmt.Sprintf("promoted to primary at term %d, seq %d", promoted.Term, f.pipe.Seq()))
	return promoted.Term, nil
}
