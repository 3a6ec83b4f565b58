package replica

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
	"github.com/tdgraph/tdgraph/internal/wal"
)

// ErrStaleTerm reports a frame or session refused because a newer term
// exists: the sender has been deposed. It wraps serve.ErrFenced so the
// node's one check — errors.Is(err, serve.ErrFenced) — fires
// through every layer of wrapping.
var ErrStaleTerm = fmt.Errorf("replica: stale term: %w", serve.ErrFenced)

// ErrFollowerBehind reports a follower whose log position cannot be
// served: it needs records retention has discarded (a full state
// transfer would be required), or it rejected a record as
// non-contiguous.
var ErrFollowerBehind = errors.New("replica: follower too far behind to catch up")

// ErrFollowerDiverged reports a replica whose log conflicts with the
// primary's and therefore cannot be attached: it is ahead of the
// primary's log end, or its newest record originates from a term the
// primary's log attributes differently at that sequence. Typically a
// deposed primary restarted as a follower, whose WAL replay
// resurrected an unacknowledged tail the promoted log never had. Its
// acks must not count toward quorum; it needs a reseed (wipe its data
// directory and rejoin empty), not catch-up.
var ErrFollowerDiverged = errors.New("replica: follower log diverges from the primary's")

// ErrQuorumLost reports a Replicate call that could not assemble
// acknowledgements from a majority: the batch is durable locally and
// on the followers that acked, but the primary may no longer promise
// it survives losing a machine, so it must stop acknowledging.
var ErrQuorumLost = errors.New("replica: replication quorum lost")

// PrimaryConfig parameterises the shipping side.
type PrimaryConfig struct {
	// Term is this primary's authority claim; followers refuse any
	// session that does not claim strictly more than they hold. The
	// caller persists it (ClaimTerm) before serving, after probing
	// every reachable peer so the claim is unique.
	Term uint64
	// ClusterSize counts every replica including this primary; the
	// default quorum is a strict majority of it.
	ClusterSize int
	// Quorum overrides the majority rule when > 0 (counting the primary
	// itself as one ack).
	Quorum int
	// WAL locates the primary's log for catch-up shipping: a follower
	// that joins (or re-joins) behind the live tail is fed the backlog
	// from these segments before live records.
	WAL wal.Options
	// AckTimeout bounds the wait for one follower acknowledgement
	// (default 5s). A follower that misses it is dropped, not waited on.
	AckTimeout time.Duration
	// Advertise is the address clients and followers should reach this
	// primary's node at; it rides in the Hello payload so followers can
	// hand it out as the redirect hint. Empty is fine for operator-run
	// clusters with no client failover.
	Advertise string
	// Clock supplies the wall times used for connection deadlines
	// (default real time). Election and lease logic never reads the
	// clock directly — the tdgraph-vet clock-discipline check enforces
	// that everything in this package flows through this seam.
	Clock serve.Clock
	// Snapshots, when set, enables reseeding: a follower that is behind
	// retention or whose log diverges is shipped the newest checkpoint
	// instead of being refused. Nil keeps PR 4's refuse-only behavior.
	Snapshots SnapshotSource
	// SnapChunkBytes bounds one snapshot chunk frame (default 256 KiB).
	SnapChunkBytes int
	// Collector receives the repl.* counters (nil = private).
	Collector *stats.Collector
	// OnEvent receives one line per notable event (nil discards).
	OnEvent func(string)
}

func (c PrimaryConfig) withDefaults() PrimaryConfig {
	if c.AckTimeout <= 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.Quorum <= 0 {
		c.Quorum = c.ClusterSize/2 + 1
	}
	if c.SnapChunkBytes <= 0 {
		c.SnapChunkBytes = 256 << 10
	}
	if c.Clock == nil {
		c.Clock = serve.RealClock{}
	}
	if c.Collector == nil {
		c.Collector = stats.NewCollector()
	}
	if c.OnEvent == nil {
		c.OnEvent = func(string) {}
	}
	return c
}

// Primary ships WAL records to followers and orders a leader's ingest
// around the quorum round (Ingest: append, replicate, apply). It is
// driven from one goroutine at a time — Node holds its primary lock
// around every call; it is not safe for concurrent use.
type Primary struct {
	cfg       PrimaryConfig
	col       *stats.Collector
	followers []*followerConn

	// state is the primary's own term ledger and seq its log-end
	// sequence, loaded from the WAL directory at the first handshake
	// (ClaimTerm persisted both before this primary started serving)
	// and kept current by Replicate.
	state       TermState
	seq         uint64
	stateLoaded bool

	// pendingShip pins WAL retention (RetainFloor) at the covered
	// sequence of a snapshot transfer that was offered but has not
	// completed, so an interrupted follower can still resume and tail
	// from there. Cleared when the install is acknowledged.
	pendingShip    uint64
	pendingShipSet bool
}

type followerConn struct {
	conn  net.Conn
	name  string
	acked uint64 // follower's last acknowledged (durable) sequence
	dead  bool
	rbuf  []byte // the frame being read from the follower, reused
}

// NewPrimary returns a primary with no followers attached. The caller
// must have persisted cfg.Term with ClaimTerm first; a primary serving
// under an unpersisted term could resurrect it after a crash and split
// the cluster.
func NewPrimary(cfg PrimaryConfig) *Primary {
	cfg = cfg.withDefaults()
	return &Primary{cfg: cfg, col: cfg.Collector}
}

// Term returns the primary's authority term.
func (p *Primary) Term() uint64 { return p.cfg.Term }

// HasLive reports whether a live follower attached under name.
func (p *Primary) HasLive(name string) bool {
	for _, fc := range p.followers {
		if !fc.dead && fc.name == name {
			return true
		}
	}
	return false
}

// Heartbeat asserts this primary's liveness to every live follower:
// one write-only FrameHeartbeat carrying the term and the log-end
// sequence. Heartbeats are never acknowledged — the next frame read on
// a session is still the next record's ack — so a quiet cluster pays
// one frame per follower per tick, not a round trip. A follower whose
// transport refuses the write is dropped exactly as a missed ack would
// drop it. Returns how many followers are alive after the sweep, the
// number the caller compares against its quorum to notice it has been
// isolated.
func (p *Primary) Heartbeat() int {
	alive := 0
	for _, fc := range p.followers {
		if fc.dead {
			continue
		}
		if err := p.writeFrame(fc, Frame{Type: FrameHeartbeat, Term: p.cfg.Term, Seq: p.seq}); err != nil {
			p.dropFollower(fc, err)
			continue
		}
		p.col.Inc(stats.CtrReplHeartbeatsSent)
		alive++
	}
	return alive
}

// AddFollower performs the handshake on conn and attaches the
// follower; any backlog it is missing ships lazily from the WAL on the
// next Replicate. A follower that answers with a newer-or-equal term
// fences this primary (ErrStaleTerm — terms are claimed strictly above
// every probed peer, so an equal term means another primary claimed it
// first). One whose log conflicts with ours — ahead of our log end, or
// tail-stamped by a term our ledger contradicts — or whose position
// retention has discarded is reseeded on the spot when a SnapshotSource
// is configured: the newest checkpoint ships before the follower
// attaches, and it joins catch-up from the installed sequence. Without
// a source the old refusals stand: ErrFollowerDiverged at the
// handshake, ErrFollowerBehind at the first catch-up.
func (p *Primary) AddFollower(conn net.Conn) error {
	return p.AddNamedFollower("", conn)
}

// AddNamedFollower is AddFollower with a caller-chosen name — the
// peer's address, for a Node-managed cluster — so the automation layer
// can tell which peers are attached (HasLive) and keep re-dialing the
// rest. An empty name gets the attachment-ordered default.
func (p *Primary) AddNamedFollower(name string, conn net.Conn) error {
	if !p.stateLoaded {
		st, err := LoadTermState(p.walFS(), p.cfg.WAL.Dir)
		if err != nil {
			return err
		}
		p.state, p.stateLoaded = st, true
	}
	// The ledger is static while we serve (ClaimTerm wrote it before
	// this primary started), but the log end moves: re-scan it so a
	// late attach compares against the current tail, not the tail at
	// first handshake.
	if end, err := wal.EndSeq(p.cfg.WAL); err != nil {
		return err
	} else if end > p.seq {
		p.seq = end
	}
	if name == "" {
		name = fmt.Sprintf("follower-%d", len(p.followers))
	}
	fc := &followerConn{conn: conn, name: name}
	if err := p.writeFrame(fc, Frame{Type: FrameHello, Term: p.cfg.Term, Payload: []byte(p.cfg.Advertise)}); err != nil {
		return err
	}
	f, err := p.readFrame(fc)
	if err != nil {
		return err
	}
	switch f.Type {
	case FrameWelcome:
		if derr := p.checkDivergence(f); derr != nil {
			p.col.Inc(stats.CtrReplDivergedRejects)
			if p.cfg.Snapshots == nil {
				p.cfg.OnEvent(fmt.Sprintf("refused diverged replica at seq %d (stamp %d): %v", f.Seq, f.Orig, derr))
				p.writeFrame(fc, Frame{Type: FrameReject, Term: p.cfg.Term, Seq: p.seq})
				return derr
			}
			p.cfg.OnEvent(fmt.Sprintf("reseeding diverged replica at seq %d (stamp %d): %v", f.Seq, f.Orig, derr))
			if _, rerr := p.reseed(fc); rerr != nil {
				return fmt.Errorf("%w; reseed failed: %w", derr, rerr)
			}
		} else {
			fc.acked = f.Seq
			if rerr := p.reseedIfCompacted(fc); rerr != nil {
				return rerr
			}
		}
	case FrameReject:
		if f.Term >= p.cfg.Term {
			return fmt.Errorf("%w: follower holds term %d, ours is %d", ErrStaleTerm, f.Term, p.cfg.Term)
		}
		return fmt.Errorf("%w: handshake rejected at seq %d", ErrFollowerBehind, f.Seq)
	default:
		return &FrameError{Reason: "handshake",
			Err: fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, f.Type)}
	}
	// Ship the backlog right away: an attach may be the rejoin of a
	// lagging or freshly reseeded replica on an otherwise idle leader,
	// and it must not have to wait for the next client batch to
	// converge.
	if fc.acked < p.seq {
		if err := p.catchUp(fc, p.seq); err != nil {
			return err
		}
	}
	p.followers = append(p.followers, fc)
	p.cfg.OnEvent(fmt.Sprintf("%s attached at seq %d", fc.name, fc.acked))
	return nil
}

// checkDivergence decides whether the log a Welcome describes can have
// grown out of ours. A follower ahead of our log end holds records we
// never had (a resurrected unacknowledged tail); one whose tail stamp
// names a different origin term than our ledger assigns that sequence
// holds a conflicting record at it. Either way re-acking it would
// silently corrupt quorum accounting. An unstamped tail (Orig 0:
// history that predates the ledger) cannot be checked and is accepted
// — divergence detection covers replicated history.
func (p *Primary) checkDivergence(f Frame) error {
	if f.Seq > p.seq {
		return fmt.Errorf("%w: follower at seq %d, our log ends at %d", ErrFollowerDiverged, f.Seq, p.seq)
	}
	if f.Seq > 0 && f.Orig != 0 {
		if mine := p.state.At(f.Seq); mine != 0 && mine != f.Orig {
			return fmt.Errorf("%w: follower's record %d originates at term %d, ours at term %d",
				ErrFollowerDiverged, f.Seq, f.Orig, mine)
		}
	}
	return nil
}

// reseedIfCompacted ships a snapshot at attach time to a follower
// whose next needed record retention has already discarded — waiting
// for the first catch-up to trip over wal.ErrCompacted would just
// fail later. Without a snapshot source this is a no-op; the first
// catch-up then reports ErrFollowerBehind as before.
func (p *Primary) reseedIfCompacted(fc *followerConn) error {
	if p.cfg.Snapshots == nil {
		return nil
	}
	start, err := wal.StartSeq(p.cfg.WAL)
	if err != nil {
		return err
	}
	if start == 0 || fc.acked+1 >= start {
		return nil
	}
	p.cfg.OnEvent(fmt.Sprintf("reseeding %s at seq %d: oldest retained record is seq %d", fc.name, fc.acked, start))
	if _, rerr := p.reseed(fc); rerr != nil {
		return fmt.Errorf("%w: needs seq %d, oldest retained is %d; reseed failed: %w",
			ErrFollowerBehind, fc.acked+1, start, rerr)
	}
	return nil
}

func (p *Primary) walFS() wal.FS {
	if p.cfg.WAL.FS != nil {
		return p.cfg.WAL.FS
	}
	return wal.OSFS{}
}

// PeerState is one probe answer: the peer's durable term, its last
// durable sequence, the origin term of its newest record (the
// up-to-dateness key elections compare), and the address of the leader
// it currently follows ("" when it follows none).
type PeerState struct {
	Term   uint64
	Seq    uint64
	Orig   uint64
	Leader string
}

// Probe asks the replica serving conn for its durable term and log
// position without claiming or adopting anything. A starting primary
// probes every reachable peer and claims strictly more than the
// maximum term it sees (and its own stored one), which is what makes
// terms unique: a deposed primary restarting cannot re-claim a term
// its successors already hold. Elections additionally compare the
// returned origin term and sequence to find the most-up-to-date
// candidate. The clock supplies the I/O deadline (nil = real time).
func Probe(conn net.Conn, timeout time.Duration, clock serve.Clock) (PeerState, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if clock == nil {
		clock = serve.RealClock{}
	}
	conn.SetDeadline(clock.Now().Add(timeout))
	defer conn.SetDeadline(time.Time{})
	if err := WriteFrame(conn, Frame{Type: FrameProbe}); err != nil {
		return PeerState{}, err
	}
	f, err := ReadFrame(conn)
	if err != nil {
		return PeerState{}, err
	}
	if f.Type != FrameState {
		return PeerState{}, &FrameError{Reason: "probe",
			Err: fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, f.Type)}
	}
	return PeerState{Term: f.Term, Seq: f.Seq, Orig: f.Orig, Leader: string(f.Payload)}, nil
}

// IngestOutcome says how far Primary.Ingest got a batch — which is what
// decides whether the client may be acknowledged, may resubmit, or must
// be sent elsewhere.
type IngestOutcome int

const (
	// NotLogged: refused or failed before the leader's log advanced.
	// Nothing is anywhere; the client resubmits the same index freely.
	NotLogged IngestOutcome = iota
	// LoggedNotQuorum: in the leader's WAL, never confirmed by a quorum
	// (quorum lost, fenced by a newer term, or the batch deadline expired
	// mid-round). The leader can neither acknowledge the batch nor accept
	// a retry of it: it must stop serving and let rejoin reconcile the tail.
	LoggedNotQuorum
	// QuorumDurable: durable on a quorum and applied. An error here is a
	// post-quorum checkpoint failure; the batch must still be acknowledged,
	// or the client would resubmit a sequence the cluster already holds.
	QuorumDurable
)

// Ingest is a leader's whole batch path for one commit group of k >= 1
// batches, in the order every member's I/O must happen: one local WAL
// append and fsync for all k, then one round trip per follower, then —
// only once a quorum holds the group — the k session applies. pipe is
// this leader's own pipeline (the one whose WAL the primary tails);
// payloads are the batches' wal.EncodeBatch bytes as received — the
// buffers logged here, shipped, and logged by every follower — batches
// what they decoded to; deadline bounds admission and the quorum wait.
// The outcome is the whole group's: what k serial calls would each have
// returned.
func (p *Primary) Ingest(pipe *serve.Pipeline, payloads [][]byte, batches [][]graph.Update, deadline time.Time) (IngestOutcome, error) {
	live := 1 // this primary
	for _, fc := range p.followers {
		if !fc.dead {
			live++
		}
	}
	if live < p.cfg.Quorum {
		// Logging a batch that cannot reach quorum would only strand it
		// (a freshly elected leader's first tick has attached nobody yet).
		return NotLogged, fmt.Errorf("%w: %d of %d required members attached", ErrQuorumLost, live, p.cfg.Quorum)
	}
	first, err := pipe.Append(payloads, deadline)
	if err != nil {
		return NotLogged, err
	}
	if err := p.ReplicateDeadline(first, payloads, deadline); err != nil {
		if errors.Is(err, serve.ErrDeadline) {
			pipe.Collector().Inc(stats.CtrServeDeadlineExpired)
		}
		return LoggedNotQuorum, err
	}
	return QuorumDurable, pipe.Apply(batches)
}

// Replicate encodes the batch at seq and ships it with no deadline
// (ReplicateDeadline). The record must already be in the local log.
func (p *Primary) Replicate(seq uint64, batch []graph.Update) error {
	return p.ReplicateDeadline(seq, [][]byte{wal.EncodeBatch(batch)}, time.Time{})
}

// ReplicateDeadline ships the records at first, first+1, … — payloads
// are their wal.EncodeBatch bytes, already in the local log — to every
// live follower, catching up any that lag from the WAL first, and
// succeeds once a quorum (counting this primary) holds all of them
// durably. The batch deadline (zero = none) bounds the quorum wait; it is
// checked between follower round trips only — per-operation I/O stays
// under AckTimeout, so a tight client budget can never sever a live
// follower session or abandon a half-read frame; the worst-case
// overshoot is one AckTimeout past the deadline. On expiry the remaining
// followers are skipped: if a quorum already acked, the group is durable
// and succeeds as usual; otherwise the failure wraps
// *serve.DeadlineError at stage "replicate".
func (p *Primary) ReplicateDeadline(first uint64, payloads [][]byte, deadline time.Time) error {
	last := first + uint64(len(payloads)) - 1
	if last > p.seq {
		p.seq = last // the records are already in the local log
	}
	acks := 1 // the primary's own log counts
	expired := false
	var fenced error
	maxLag := uint64(0)
	for _, fc := range p.followers {
		if fc.dead {
			continue
		}
		if !deadline.IsZero() && !p.cfg.Clock.Now().Before(deadline) {
			expired = true
			break
		}
		// Lag is how far this follower trailed when the group arrived,
		// measured before shipping closes the gap (afterwards acked has
		// caught up and the gauge would always read 0) and to the group's
		// first record, so it reads what serial submits would have shown.
		if first > fc.acked {
			if lag := first - fc.acked; lag > maxLag {
				maxLag = lag
			}
		}
		if err := p.shipTo(fc, first, payloads); err != nil {
			if errors.Is(err, serve.ErrFenced) {
				fenced = err
				break
			}
			p.dropFollower(fc, err)
			continue
		}
		acks++
		p.col.Inc(stats.CtrReplAcks)
	}
	p.col.Set(stats.CtrReplLag, maxLag)
	if fenced != nil {
		return fenced
	}
	if acks < p.cfg.Quorum {
		if expired {
			return fmt.Errorf("replica: %d of %d acks for seq %d when the batch deadline expired: %w",
				acks, p.cfg.Quorum, last, serve.NewDeadlineError("replicate"))
		}
		p.col.Inc(stats.CtrReplQuorumFailures)
		return fmt.Errorf("%w: %d of %d required acks for seq %d", ErrQuorumLost, acks, p.cfg.Quorum, last)
	}
	return nil
}

// shipTo brings one follower through the group at first: backlog records
// from the WAL before it when the follower lags, then the live group.
func (p *Primary) shipTo(fc *followerConn, first uint64, payloads [][]byte) error {
	if fc.acked+1 < first {
		if err := p.catchUp(fc, first-1); err != nil {
			return err
		}
	}
	return p.sendRecords(fc, first, payloads, false)
}

// catchUp replays the primary's own WAL to the follower through
// sequence to, each backlog record its own commit group of one,
// acknowledged before the next is sent: backlog records keep the origin
// terms that created them, and a group may open at most one ledger range
// on the follower (stampOrigin). The tailer reads the same segments the
// pipeline writes; a follower wanting records retention has discarded is
// reseeded from the newest checkpoint mid-stream (re-tailing from the
// installed sequence) when a snapshot source exists, and cannot be
// served otherwise.
func (p *Primary) catchUp(fc *followerConn, to uint64) error {
	tl := wal.NewTailer(p.cfg.WAL, fc.acked+1)
	defer func() { tl.Close() }()
	for fc.acked < to {
		seq, payload, err := tl.Next()
		if err != nil {
			if errors.Is(err, wal.ErrCompacted) {
				if p.cfg.Snapshots != nil {
					snapSeq, rerr := p.reseed(fc)
					if rerr != nil {
						return fmt.Errorf("%w: needs seq %d; reseed failed: %w", ErrFollowerBehind, fc.acked+1, rerr)
					}
					tl.Close()
					tl = wal.NewTailer(p.cfg.WAL, snapSeq+1)
					continue
				}
				return fmt.Errorf("%w: needs seq %d: %w", ErrFollowerBehind, fc.acked+1, err)
			}
			if errors.Is(err, wal.ErrCaughtUp) {
				// The log ends before `to`: the caller asked for a record
				// that is not in the log, which is a protocol bug upstream.
				return fmt.Errorf("%w: log ends before seq %d", ErrFollowerBehind, to)
			}
			return err
		}
		if err := p.sendRecords(fc, seq, [][]byte{payload}, true); err != nil {
			return err
		}
	}
	return nil
}

// sendRecords ships one commit group — the records first, first+1, …,
// back to back, every one but the closing as FrameRecordMore, which the
// follower gathers without answering — and waits for the one
// acknowledgement that covers the last. Acknowledgements below it are
// stale — re-acks of frames a faulty wire duplicated — and are skipped,
// not errors. Each record carries its origin term from the primary's
// ledger (catch-up records keep the term that created them, not this
// session's), so followers can stamp their own ledgers identically.
//
//tdgraph:hot
func (p *Primary) sendRecords(fc *followerConn, first uint64, payloads [][]byte, catchup bool) error {
	last := first + uint64(len(payloads)) - 1
	for i, payload := range payloads {
		fr := Frame{Type: FrameRecordMore, Term: p.cfg.Term, Seq: first + uint64(i), Payload: payload}
		if fr.Orig = p.state.At(fr.Seq); fr.Seq == last {
			fr.Type = FrameRecord
		}
		if err := p.writeFrame(fc, fr); err != nil {
			return err
		}
		p.col.Inc(stats.CtrReplShippedRecords)
		p.col.Add(stats.CtrReplShippedBytes, uint64(len(payload)))
		if catchup {
			p.col.Inc(stats.CtrReplCatchupRecords)
		}
	}
	for {
		f, err := p.readFrame(fc)
		if err != nil {
			return err
		}
		switch f.Type {
		case FrameAck:
			if f.Seq >= last {
				fc.acked = f.Seq
				return nil
			}
			// Stale ack (duplicate frame re-acked): keep waiting.
		case FrameReject:
			if f.Term > p.cfg.Term {
				//tdgraph:allow hotalloc a refusal ends the follower's session
				return fmt.Errorf("%w: follower moved to term %d, ours is %d", ErrStaleTerm, f.Term, p.cfg.Term)
			}
			//tdgraph:allow hotalloc a refusal ends the follower's session
			return fmt.Errorf("%w: record %d rejected at follower seq %d", ErrFollowerBehind, last, f.Seq)
		default:
			//tdgraph:allow hotalloc a protocol violation ends the follower's session
			return &FrameError{Reason: "ack wait", Err: fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, f.Type)}
		}
	}
}

// readFrame reads one frame from the follower under the ack deadline,
// into the connection's own buffer (valid until the next read).
func (p *Primary) readFrame(fc *followerConn) (Frame, error) {
	fc.conn.SetReadDeadline(p.cfg.Clock.Now().Add(p.cfg.AckTimeout))
	f, err := readFrameInto(fc.conn, &fc.rbuf)
	fc.conn.SetReadDeadline(time.Time{})
	return f, err
}

// writeFrame sends one frame to the follower under the same deadline
// reads honor: a stalled-but-connected follower (full TCP send buffer
// during a large catch-up, say) must not block Replicate — and with it
// Ingest and the whole serve loop — indefinitely. On timeout the
// caller drops the follower, mirroring a missed ack.
func (p *Primary) writeFrame(fc *followerConn, f Frame) error {
	fc.conn.SetWriteDeadline(p.cfg.Clock.Now().Add(p.cfg.AckTimeout))
	err := WriteFrame(fc.conn, f)
	fc.conn.SetWriteDeadline(time.Time{})
	return err
}

func (p *Primary) dropFollower(fc *followerConn, cause error) {
	fc.dead = true
	fc.conn.Close()
	p.col.Inc(stats.CtrReplFollowerDrops)
	p.cfg.OnEvent(fmt.Sprintf("dropped %s at seq %d: %v", fc.name, fc.acked, cause))
}

// Close drops every follower connection.
func (p *Primary) Close() error {
	for _, fc := range p.followers {
		if !fc.dead {
			fc.dead = true
			fc.conn.Close()
		}
	}
	return nil
}
