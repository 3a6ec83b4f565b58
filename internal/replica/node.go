package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/tdgraph/tdgraph/internal/graph"
	"github.com/tdgraph/tdgraph/internal/serve"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// This file is the automation layer that turns a replica set into a
// self-driving cluster. PR 4 built the mechanism (terms, fencing,
// probes, promotion) and PR 7 the repair path (snapshot reseed); both
// still assumed an operator deciding *when* to fail over. Node closes
// the loop: the leader heartbeats its followers, followers hold a
// lease on the injectable clock, a missed lease starts a randomized
// election that races the existing probe machinery, the most
// up-to-date candidate claims max-of-probed+1 and promotes, losers
// and deposed primaries observe the higher term and rejoin as
// followers (reseeding through the PR 7 path when diverged), and
// clients chase the leader through redirect hints. Everything is
// built from the PR 4/7 primitives, so the safety argument is
// unchanged — elections only decide who runs them.

// ErrLeaseExpired reports a follower's liveness lease running out: no
// heartbeat, record, or handshake arrived from the primary within the
// lease window, so the primary is suspect and an election is due.
var ErrLeaseExpired = errors.New("replica: leader lease expired")

// ErrElectionLost reports a candidacy withdrawn in favor of a better
// peer: one with a more current log, or one still under a live
// leader's lease. The loser returns to following and waits to be
// attached by whoever wins.
var ErrElectionLost = errors.New("replica: election lost")

// Role is a node's position in the cluster at a moment in time.
type Role string

const (
	// RoleFollower applies replicated records and watches the lease.
	RoleFollower Role = "follower"
	// RoleCandidate holds no live lease (it expired, or the node has
	// just started) and is racing an election.
	RoleCandidate Role = "candidate"
	// RoleLeader serves client ingestion and heartbeats followers.
	RoleLeader Role = "leader"
)

// electedEvent is the OnEvent line a member emits when it wins an
// election: the term it leads and its log's last sequence number.
// Tests scan events with the same format.
const electedEvent = "elected leader at term %d (seq %d)"

// diskRetryAfter is the retry-after hint handed to clients refused
// under disk pressure: long enough that retention advancing or an
// operator freeing space can make progress, short enough that recovery
// is noticed promptly.
const diskRetryAfter = 250 * time.Millisecond

// NodeConfig parameterises one self-driving cluster member.
type NodeConfig struct {
	// Addr is this node's advertised address: the dial key peers and
	// clients reach it by, the redirect hint it hands out as leader,
	// and the deterministic tie-break in elections.
	Addr string
	// Peers are the other members' advertised addresses.
	Peers []string
	// Dial opens a connection to a peer address.
	Dial func(addr string) (net.Conn, error)
	// Pipeline is this node's durable pipeline configuration, exactly
	// what an operator-run follower would use.
	Pipeline serve.PipelineConfig
	// HeartbeatEvery is the leader's liveness cadence (default 1s).
	HeartbeatEvery time.Duration
	// LeaseTimeout is how long a follower tolerates silence before
	// suspecting the leader (default 4x HeartbeatEvery). It also
	// bounds how long an isolated leader keeps serving: a leader that
	// cannot reach a quorum of followers for a full lease steps down.
	LeaseTimeout time.Duration
	// AckTimeout bounds one replication or probe round trip
	// (default 5s).
	AckTimeout time.Duration
	// Seed drives the randomized election splay (mixed with Addr so
	// identically seeded members still splay apart).
	Seed int64
	// SLO is the ingest-latency objective while leading: when set, an
	// admission controller watches each client batch's end-to-end
	// ingest latency (WAL, fsync, quorum) and starts refusing new
	// submissions with backpressure rejects — typed, retryable, with a
	// retry-after hint — once latency runs sustainedly past it. 0
	// disables SLO-driven admission control.
	SLO time.Duration
	// Clock supplies every wall time and wait (default real time).
	// The tdgraph-vet clock-discipline check pins this package to it.
	Clock serve.Clock
	// OnEvent receives one line per notable event (nil discards).
	OnEvent func(string)
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 4 * c.HeartbeatEvery
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = serve.RealClock{}
	}
	if c.OnEvent == nil {
		c.OnEvent = func(string) {}
	}
	return c
}

// Node is one self-driving cluster member: a Follower wired to a
// lease monitor, an election loop, and (while leading) a Primary plus
// the client-ingestion handler. Run drives the role state machine;
// HandleConn serves one accepted connection. Both are safe to use
// concurrently with each other.
type Node struct {
	cfg   NodeConfig
	fol   *Follower
	col   *stats.Collector
	clock serve.Clock
	slo   *serve.SLOController // nil unless cfg.SLO is set
	// linger bounds a round's wait for the submits a pipelining client
	// owes (groupLinger; a test widens it so that how a window splits
	// never depends on host load).
	linger time.Duration

	// pmu serialises everything that moves the pipeline outside a
	// replication session: client ingest, heartbeats, follower
	// attachment, and installing/closing the Primary. Never acquire
	// fol.sessionMu while holding pmu (the election path takes them in
	// the opposite order).
	pmu     sync.Mutex
	primary *Primary
	// ackedSeq is the quorum-acknowledged prefix of the log: the
	// highest sequence a client may be told is durable. Ingest advances
	// the pipeline's sequence at the local WAL append, *before* quorum
	// replication, so the two differ exactly when the log holds a tail
	// no quorum ever confirmed — a tail that must never be advertised
	// in a Welcome or re-ack. Guarded by pmu.
	ackedSeq uint64

	// mu guards the cheap control state below.
	mu         sync.Mutex
	role       Role
	term       uint64
	leaderAddr string // the leader hint: own address while leading
	leaseUntil time.Time
	rng        *rand.Rand
	session    net.Conn // active inbound replication session
	closed     bool
	// heard is whether the lease was last renewed by the leader itself (a
	// session or heartbeat), not by deferring to a peer's probe answer;
	// only a leader this node heard is named in its own probe answers.
	heard bool
	// isolatedSince is when the leader started missing its quorum of
	// heartbeat deliveries (zero while delivery is healthy).
	isolatedSince time.Time
	// attaching marks a background attach round in flight (at most one);
	// attachWG joins it, so Close returns only once it has exited.
	attaching bool
	attachWG  sync.WaitGroup
}

// NewNode recovers the local durable state and returns a node that
// stands for election at once: a member that just started has heard from
// no leader, so it holds no lease to wait out. The election probe is its
// grace instead. Its first candidacy is cold (see campaign): it probes
// every member through its splay and claims in the first round they all
// answer, if none outranks it. A leader that attaches it meanwhile ends
// the candidacy, and a live leader it reaches first (or a peer still
// under that leader's lease) answers the probe with a hint it defers to.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Dial == nil {
		return nil, errors.New("replica: node needs a dialer")
	}
	n := &Node{cfg: cfg, clock: cfg.Clock, linger: groupLinger}
	n.slo = serve.NewSLOController(cfg.SLO)
	h := fnv.New64a()
	h.Write([]byte(cfg.Addr))
	n.rng = rand.New(rand.NewSource(cfg.Seed ^ int64(h.Sum64())))
	fol, err := NewFollower(FollowerConfig{
		Pipeline:   cfg.Pipeline,
		OnLiveness: n.noteLiveness,
		OnLeader:   n.noteLeader,
		OnEvent:    cfg.OnEvent,
	})
	if err != nil {
		return nil, err
	}
	n.fol = fol
	n.col = fol.Pipeline().Collector()
	n.role = RoleCandidate
	n.term = fol.Term()
	cfg.OnEvent(fmt.Sprintf("term %d: started at seq %d; standing for election", n.term, fol.Seq()))
	return n, nil
}

// Follower exposes the node's replication state (pipeline, seq, term).
func (n *Node) Follower() *Follower { return n.fol }

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term returns the highest term this node has adopted or claimed.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// LeaderAddr returns the node's best guess at the current leader's
// address: its own when leading, the last adopted primary's otherwise
// ("" when it has none).
func (n *Node) LeaderAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderAddr
}

// noteLiveness renews the lease: the primary at term proved it is
// alive. Stale terms renew nothing. Called from session goroutines.
func (n *Node) noteLiveness(term uint64) {
	n.mu.Lock()
	if term >= n.term && n.role != RoleLeader {
		n.term = term
		n.leaseUntil = n.clock.Now().Add(n.cfg.LeaseTimeout)
		n.heard = true
		if n.role == RoleCandidate {
			n.role = RoleFollower // a live leader ends the candidacy
		}
	}
	n.mu.Unlock()
}

// noteLeader records a durably adopted term and its primary's
// address. A leader seeing a *newer* term adopted through its own
// follower half has been deposed and auto-demotes. Called from
// session goroutines, after the term is durable.
func (n *Node) noteLeader(term uint64, addr string) {
	n.mu.Lock()
	wasLeader := n.role == RoleLeader && term > n.term
	if term >= n.term {
		n.term = term
		n.leaderAddr = addr
		n.leaseUntil = n.clock.Now().Add(n.cfg.LeaseTimeout)
		n.heard = true
		if n.role == RoleCandidate {
			n.role = RoleFollower
		}
	}
	n.mu.Unlock()
	if wasLeader {
		n.demote(fmt.Sprintf("deposed by term %d at %s", term, addr))
	}
}

// Run drives the role state machine until ctx is cancelled or the
// node is closed: watch the lease while following, campaign while a
// candidate (where a starting node begins), heartbeat and re-attach
// peers while leading.
// Every wait goes through the injectable clock.
func (n *Node) Run(ctx context.Context) error {
	// Only the first pass can be a starting member's cold candidacy.
	for cold := true; ; cold = false {
		if err := ctx.Err(); err != nil {
			return err
		}
		closed, role, lease, term := n.runView()
		if closed {
			return nil
		}
		switch role {
		case RoleLeader:
			if err := n.leaderTick(); err != nil {
				continue // demoted; re-read the role immediately
			}
			if err := n.clock.Sleep(ctx, n.cfg.HeartbeatEvery); err != nil {
				return err
			}
		case RoleFollower:
			now := n.clock.Now()
			if now.Before(lease) {
				if err := n.clock.Sleep(ctx, lease.Sub(now)); err != nil {
					return err
				}
				continue // the lease may have been renewed while we slept
			}
			n.col.Inc(stats.CtrReplHeartbeatsMissed)
			n.cfg.OnEvent(fmt.Sprintf("term %d: %v; standing for election", term, ErrLeaseExpired))
			n.severSession() // release a dead session's hold on the pipeline
			n.standForElection()
		case RoleCandidate:
			err := n.campaign(ctx, cold)
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err != nil {
				n.cfg.OnEvent(fmt.Sprintf("election: %v", err))
				if errors.Is(err, ErrElectionLost) {
					// Defer: the better peer wins and attaches us; give it
					// a lease-worth before suspecting again.
					n.deferCandidacy()
				}
				// Quorum unreachable: stay candidate and campaign again.
			}
		}
	}
}

// campaign is one candidacy. A candidate waits out a randomized splay,
// so identically timed candidates probe at different instants and
// whoever probes later meets the earlier winner's claim (or lease) and
// defers, then runs a quorum round. A cold candidate — one that has just
// started and followed nobody — probes through its splay instead: rounds
// that need every member, a short pause apart, each judged on its own
// answers alone. The first round every member answers settles the
// election; if none does, the quorum round still runs at the end of the
// splay, when it would have run anyway. It returns nil, the role no
// longer candidate, when a leader attached us meanwhile.
func (n *Node) campaign(ctx context.Context, cold bool) error {
	n.col.Inc(stats.CtrReplElections)
	until := n.clock.Now().Add(n.electionSplay())
	for {
		if cold && n.clock.Now().Before(until) {
			if err := n.electRound(len(n.cfg.Peers)+1, until); !errors.Is(err, ErrQuorumLost) {
				return err // claimed, deferred, or the claim itself failed
			}
		}
		wait := until.Sub(n.clock.Now())
		if wait <= 0 {
			return n.electRound(n.quorum(), time.Time{})
		}
		if cold {
			wait = min(wait, n.cfg.HeartbeatEvery/16)
		}
		if err := n.clock.Sleep(ctx, wait); err != nil {
			return err
		}
		if role, _ := n.roleView(); role != RoleCandidate {
			return nil // a leader attached us while we waited
		}
	}
}

// runView reads the role loop's decision state under the state lock.
func (n *Node) runView() (closed bool, role Role, lease time.Time, term uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed, n.role, n.leaseUntil, n.term
}

// standForElection flips an expired follower to candidate, unless a
// session renewed the lease while the caller was severing the old one.
func (n *Node) standForElection() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleFollower && !n.clock.Now().Before(n.leaseUntil) {
		n.role = RoleCandidate
		// The lease died with the leader: stop vouching for it in probe
		// answers, or two deferring candidates would keep re-certifying
		// a dead leader to each other.
		n.leaderAddr = ""
	}
}

// deferCandidacy returns a losing candidate to following with a fresh
// lease, giving the better peer time to win and attach it. The lease is
// its own patience, not word from a leader, so it vouches for nobody.
func (n *Node) deferCandidacy() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RoleCandidate {
		n.role = RoleFollower
		n.leaseUntil = n.clock.Now().Add(n.cfg.LeaseTimeout)
		n.heard = false
	}
}

// electionSplay draws the seeded randomized wait before a candidacy's
// quorum round: between half a heartbeat and half a lease, so candidates
// spread across the window that detection already cost. A cold
// candidate probes through it instead of sleeping (campaign).
func (n *Node) electionSplay() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	lo := n.cfg.HeartbeatEvery / 2
	span := n.cfg.LeaseTimeout/2 - lo
	if span <= 0 {
		return lo
	}
	return lo + time.Duration(n.rng.Int63n(int64(span)))
}

// electRound runs one election round: probe every peer, and claim
// max-of-probed+1 only if need members (this one included) answered, no
// answering peer is still under a live leader's lease, and no answering
// peer's log outranks ours (origin term, then sequence, then lowest
// address). Each probe waits at most AckTimeout, and never past deadline
// when one is set. Deterministic given the probe answers: for any
// reachable set there is exactly one node every other member defers to.
func (n *Node) electRound(need int, deadline time.Time) error {
	myTerm := n.fol.Term()
	mySeq := n.fol.Seq()
	myOrig := n.fol.TailStamp()
	reached := 1 // this node
	maxTerm := myTerm
	for _, peer := range n.cfg.Peers {
		timeout := n.cfg.AckTimeout
		if !deadline.IsZero() {
			if timeout = min(timeout, deadline.Sub(n.clock.Now())); timeout <= 0 {
				break // out of time: the rest count as unreached
			}
		}
		conn, err := n.cfg.Dial(peer)
		if err != nil {
			continue
		}
		st, err := Probe(conn, timeout, n.clock)
		conn.Close()
		if err != nil {
			continue
		}
		reached++
		if st.Term > maxTerm {
			maxTerm = st.Term
		}
		if st.Leader != "" && st.Leader != n.cfg.Addr && st.Term >= myTerm {
			// Leader stickiness: that peer still hears a leader we cannot
			// (an asymmetric partition around us). Deferring instead of
			// claiming keeps a reachable-but-deaf node from deposing a
			// healthy leader — and we adopt the hint, so clients asking us
			// are redirected somewhere useful.
			n.mu.Lock()
			n.leaderAddr = st.Leader
			n.mu.Unlock()
			return fmt.Errorf("%w: %s still follows %s under a live lease", ErrElectionLost, peer, st.Leader)
		}
		if outranks(st, peer, myOrig, mySeq, n.cfg.Addr) {
			return fmt.Errorf("%w: %s is more current (orig %d seq %d vs ours orig %d seq %d)",
				ErrElectionLost, peer, st.Orig, st.Seq, myOrig, mySeq)
		}
	}
	if reached < need {
		return fmt.Errorf("%w: reached %d of %d members", ErrQuorumLost, reached, need)
	}
	term, err := n.fol.PromoteTo(maxTerm + 1)
	if err != nil {
		return err
	}
	n.becomeLeader(term)
	return nil
}

// outranks reports whether a probed peer's candidacy beats ours:
// newer tail origin term, then longer log, then — on a full tie —
// the lexicographically lower address, so equals still agree on one
// winner.
func outranks(st PeerState, peerAddr string, myOrig, mySeq uint64, myAddr string) bool {
	if st.Orig != myOrig {
		return st.Orig > myOrig
	}
	if st.Seq != mySeq {
		return st.Seq > mySeq
	}
	return peerAddr < myAddr
}

// quorum is the number of members, this one included, that an
// election or a leader's lease must reach.
func (n *Node) quorum() int { return majority(len(n.cfg.Peers) + 1) }

// becomeLeader installs the Primary for a freshly claimed term and
// flips the role. The term is already durable (PromoteTo saved it).
func (n *Node) becomeLeader(term uint64) {
	p := NewPrimary(PrimaryConfig{
		Term:        term,
		ClusterSize: len(n.cfg.Peers) + 1,
		WAL:         n.cfg.Pipeline.WAL,
		AckTimeout:  n.cfg.AckTimeout,
		Advertise:   n.cfg.Addr,
		Clock:       n.clock,
		Snapshots:   n.fol.Pipeline(),
		Collector:   n.col,
		OnEvent:     n.cfg.OnEvent,
	})
	n.pmu.Lock()
	n.primary = p
	// The election certified this log as the most current among a
	// reachable quorum, and every batch a past leader acknowledged
	// lives on a quorum, so the whole local log is the acknowledged
	// prefix — the new leader commits its predecessors' entries.
	n.ackedSeq = n.fol.Seq()
	n.fol.Pipeline().SetRetentionAdvisor(p)
	n.pmu.Unlock()
	n.mu.Lock()
	n.role = RoleLeader
	n.term = term
	n.leaderAddr = n.cfg.Addr
	n.isolatedSince = time.Time{}
	n.mu.Unlock()
	n.cfg.OnEvent(fmt.Sprintf(electedEvent, term, n.fol.Seq()))
}

// leaderTick is one heartbeat round: heartbeat every live follower,
// then hand any peer that is not one to the background attach round
// (the rejoin path — a restarted or deposed node is caught up, or
// reseeded when diverged). A tick that finds this leader has missed its
// delivery quorum for a full lease demotes it and returns an error so
// Run re-reads the role.
func (n *Node) leaderTick() error {
	alive, err := n.heartbeat()
	if err != nil {
		return err
	}
	if alive+1 >= n.quorum() {
		n.clearIsolation()
		return nil
	}
	now := n.clock.Now()
	if n.isolationSpan(now) >= n.cfg.LeaseTimeout {
		// Step down rather than serve a minority side of a partition:
		// the majority side elects (or elected) its own leader, and our
		// unacknowledged writes are exactly the divergence reseed heals.
		err := fmt.Errorf("heartbeats reach %d of %d members: %w", alive+1, n.quorum(), ErrQuorumLost)
		n.demote(err.Error())
		return err
	}
	return nil
}

// isolationSpan records, under the state lock, that this tick missed
// the delivery quorum and returns how long the drought has lasted (zero
// on the tick that starts it). Demotions and re-elections reset the
// tracker from their own goroutines, hence the lock.
func (n *Node) isolationSpan(now time.Time) time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.isolatedSince.IsZero() {
		n.isolatedSince = now
	}
	return now.Sub(n.isolatedSince)
}

// clearIsolation resets the heartbeat-drought tracker.
func (n *Node) clearIsolation() {
	n.mu.Lock()
	n.isolatedSince = time.Time{}
	n.mu.Unlock()
}

// heartbeat asserts liveness to every live follower and returns how
// many took the frame — the number the isolation quorum is judged on; a
// follower attached meanwhile restarts the isolation clock and counts
// here from the next tick. Heartbeats go
// first and never wait on a dial: a follower's lease is a few
// heartbeats long, one unreachable peer can burn a full connect timeout
// per attempt, and a healthy follower must not depose a healthy leader
// because a third member is black-holed. So peers that are not live
// followers are handed to attachMissing, off this goroutine.
func (n *Node) heartbeat() (alive int, err error) {
	n.pmu.Lock()
	p := n.primary
	if p == nil {
		n.pmu.Unlock()
		return 0, errors.New("replica: no primary installed")
	}
	alive = p.Heartbeat()
	var missing []string
	for _, peer := range n.cfg.Peers {
		if !p.HasLive(peer) {
			missing = append(missing, peer)
		}
	}
	n.pmu.Unlock()
	if len(missing) > 0 {
		n.attachMissing(p, missing)
	}
	return alive, nil
}

// attachMissing starts one background round that dials and attaches the
// given peers, unless the previous round is still running (a blocked
// dial must not pile up goroutines). Dialing happens outside the
// primary lock and each handshake takes it individually, so client
// ingest interleaves between attachments. A handshake that proves this
// term outranked demotes on the spot.
func (n *Node) attachMissing(p *Primary, missing []string) {
	n.mu.Lock()
	if n.attaching || n.closed {
		n.mu.Unlock()
		return
	}
	n.attaching = true
	n.attachWG.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.attachWG.Done()
		defer func() {
			n.mu.Lock()
			n.attaching = false
			n.mu.Unlock()
		}()
		for _, peer := range missing {
			conn, err := n.cfg.Dial(peer)
			if err != nil {
				continue
			}
			if err := n.attachOne(p, peer, conn); err != nil {
				if errors.Is(err, serve.ErrFenced) {
					n.demote(fmt.Sprintf("fenced attaching %s: %v", peer, err))
					return
				}
				n.cfg.OnEvent(fmt.Sprintf("attach %s failed: %v", peer, err))
				continue
			}
			// An attach is a delivery too: a long catch-up or reseed holds
			// the primary lock (and with it the next heartbeat) well past a
			// lease, and must not read as that much isolation.
			n.clearIsolation()
		}
	}()
}

// attachOne hands one dialed connection to the primary under the lock,
// re-checking that the peer did not attach (the previous round may have
// finished after this one's list was drawn up) and the primary was not
// uninstalled while the dial ran.
func (n *Node) attachOne(p *Primary, peer string, conn net.Conn) error {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if n.primary != p {
		conn.Close()
		return errors.New("replica: primary uninstalled mid-dial")
	}
	if p.HasLive(peer) {
		conn.Close()
		return nil
	}
	if err := p.AddNamedFollower(peer, conn); err != nil {
		conn.Close()
		return err
	}
	n.cfg.OnEvent(fmt.Sprintf("attached %s at term %d", peer, p.Term()))
	return nil
}

// demote steps down from leading: uninstall and close the Primary,
// return to following with a fresh lease, and count the demotion.
// Safe to call from any goroutine; only the first caller acts.
func (n *Node) demote(reason string) {
	n.pmu.Lock()
	p := n.primary
	n.primary = nil
	if p != nil {
		n.fol.Pipeline().SetRetentionAdvisor(nil)
		p.Close()
	}
	n.pmu.Unlock()
	if p == nil {
		return
	}
	n.col.Inc(stats.CtrReplDemotions)
	n.mu.Lock()
	if n.role == RoleLeader {
		n.role = RoleFollower
	}
	if n.leaderAddr == n.cfg.Addr {
		// Stop vouching for our own deposed leadership in probe answers
		// and redirects; a successor (if any) overwrites this on attach.
		n.leaderAddr = ""
	}
	n.leaseUntil = n.clock.Now().Add(n.cfg.LeaseTimeout)
	n.isolatedSince = time.Time{}
	n.mu.Unlock()
	n.cfg.OnEvent("demoted: " + reason)
}

// severSession closes the active inbound replication session, if any:
// a lease expiry means the session is dead weight holding the
// pipeline, and the election (or the next leader) needs it released.
func (n *Node) severSession() {
	n.mu.Lock()
	s := n.session
	n.session = nil
	n.mu.Unlock()
	if s != nil {
		s.Close()
	}
}

// HandleConn serves one accepted connection: probes are answered
// statelessly, a Hello opens a replication session (superseding a
// stale one), a ClientHello opens an ingestion session. Runs on the
// acceptor's goroutine until the peer is done.
func (n *Node) HandleConn(conn net.Conn) error {
	for {
		fr, err := ReadFrame(conn)
		if err != nil {
			conn.Close()
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		switch fr.Type {
		case FrameProbe:
			if err := n.answerProbe(conn); err != nil {
				conn.Close()
				return err
			}
		case FrameHello:
			return n.serveReplication(conn, fr)
		case FrameClientHello:
			return n.serveClient(conn)
		default:
			conn.Close()
			return &FrameError{Reason: "node handshake",
				Err: fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, fr.Type)}
		}
	}
}

// answerProbe answers with the follower's durable state plus a leader
// hint that is only as fresh as the lease: a leader names itself, a
// follower under a live lease it heard from that leader names its
// primary, and an expired lease — or one a deferring candidate granted
// itself — hints nothing, so candidates never defer to a leader nobody
// has heard from.
func (n *Node) answerProbe(conn net.Conn) error {
	n.mu.Lock()
	leader := ""
	if n.role == RoleLeader || n.heard && n.clock.Now().Before(n.leaseUntil) {
		leader = n.leaderAddr
	}
	n.mu.Unlock()
	return n.fol.AnswerProbeLeader(conn, leader)
}

// serveReplication runs an inbound replication session. A claim the
// follower's fence refuses (Follower.fences) is refused without
// touching the live session; any other claim supersedes it (the
// current term's primary reconnecting, or a newer authority) — the
// superseded connection is closed so its session unwinds and the new
// one takes the pipeline.
func (n *Node) serveReplication(conn net.Conn, hello Frame) error {
	if adopted, fenced := n.fol.fences(hello.Term); fenced {
		n.col.Inc(stats.CtrReplFenceRejects)
		WriteFrame(conn, Frame{Type: FrameReject, Term: adopted, Seq: n.fol.Seq()})
		conn.Close()
		return fmt.Errorf("session claim at term %d, adopted term is %d: %w", hello.Term, adopted, ErrStaleTerm)
	}
	old, nodeClosed := n.adoptSession(conn)
	if nodeClosed {
		conn.Close()
		return nil
	}
	if old != nil && old != conn {
		old.Close()
	}
	err := n.fol.ServeSession(conn, hello)
	conn.Close()
	n.releaseSession(conn)
	return err
}

// adoptSession installs conn as the node's live inbound session and
// returns the superseded one for the caller to close — unless the node
// is already shut down, in which case nothing is adopted.
func (n *Node) adoptSession(conn net.Conn) (old net.Conn, nodeClosed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, true
	}
	old = n.session
	n.session = conn
	return old, false
}

// releaseSession clears the live-session slot if conn still owns it (a
// superseding session may have already taken it over).
func (n *Node) releaseSession(conn net.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.session == conn {
		n.session = nil
	}
}

// serveClient runs one client-ingestion session: Welcome with the
// durable sequence, then Submit/Ack rounds (serveSubmits). A node that
// is not the leader refuses with the redirect hint.
func (n *Node) serveClient(conn net.Conn) error {
	defer conn.Close()
	role, term := n.roleView()
	if role != RoleLeader {
		return n.refuseClient(conn)
	}
	if err := WriteFrame(conn, Frame{Type: FrameWelcome, Term: term, Seq: n.durableSeq()}); err != nil {
		return err
	}
	in := newSessionConn(conn)
	return n.serveSubmits(conn, &clientSession{br: bufio.NewReaderSize(in, groupReadAhead), in: in})
}

// refuseClient answers a client this node cannot serve with the redirect
// hint: whoever it believes leads.
func (n *Node) refuseClient(conn net.Conn) error {
	n.mu.Lock()
	term, leader := n.term, n.leaderAddr
	n.mu.Unlock()
	n.col.Inc(stats.CtrReplRedirects)
	WriteFrame(conn, Frame{Type: FrameReject, Term: term, Payload: []byte(leader)})
	return &RedirectError{Leader: leader}
}

// clientSession is the memory one client session serves its commit
// rounds from, reused round after round: the read-ahead buffer on its
// connection, the frame of the submit a round starts from, and the
// round's commit group. in is the connection under br when it can be
// peeked (nil otherwise: rounds then never wait for owed submits).
type clientSession struct {
	br    *bufio.Reader
	in    *sessionConn
	frame []byte
	group commitGroup
}

// serveSubmits is a welcomed client session's Submit/Ack rounds, read
// through s.br (which must read conn), every batch going through the
// ordinary leader pipeline (WAL, fsync, quorum replication). The unit of
// a round is the commit group: the submit the session was waiting for
// plus whatever run of further submits a pipelining client already has
// queued behind it (gatherSubmits), made durable by one WAL barrier and
// one follower round trip and answered with one in-order Ack each; a
// client with one submit in flight gets groups of one. After a group of
// k > 1 the next round first waits, at most the linger, for the submits
// the client owes: the k it sends for the acks plus those already
// waiting when they went out (awaitFrames). A node that stops
// being the leader refuses with the redirect hint. Duplicate submissions
// (a client retrying across failover) are re-acked without re-applying;
// that plus the Welcome sequence is what keeps acked batches exactly-once
// under leadership changes.
func (n *Node) serveSubmits(conn net.Conn, s *clientSession) error {
	pipe, br, group := n.fol.Pipeline(), s.br, &s.group
	owed := 0 // frames the client owes the next round, its head among them
	for {
		fr, err := readFrameInto(br, &s.frame)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		wait := owed
		owed = 0
		if fr.Type != FrameSubmit {
			return &FrameError{Reason: "client session",
				Err: fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, fr.Type)}
		}
		role, term := n.roleView()
		if role != RoleLeader {
			return n.refuseClient(conn)
		}
		group.reset()
		if err := group.add(fr.Payload, false); err != nil {
			return &FrameError{Reason: "submit payload", Err: err}
		}
		// SLO backpressure gate: while the admission controller is in
		// its shedding posture, refuse before touching the pipeline so
		// a storm of submissions cannot pile onto an already-slow
		// quorum. The refusal is typed, retryable, and keeps the
		// session: the leader is healthy, just saturated.
		if n.slo.Level() >= serve.PressureShed {
			n.col.Inc(stats.CtrQueueShedSLO)
			if err := n.busyReject(conn, term, "!slo", n.slo.RetryAfter()); err != nil {
				return err
			}
			continue
		}
		if wait > 1 {
			awaitFrames(conn, br, wait-1, n.clock.Now().Add(n.linger))
		}
		// Everything but a quorum-durable round leaves the gathered
		// submits unread: the loop then meets them one by one, and they
		// get exactly the answers serial processing gives (after a busy
		// refusal of the head, the gap Reject).
		gathered := gatherSubmits(group, br, fr)
		// A Submit's Orig is the client's remaining deadline budget in
		// milliseconds; rebase it onto this node's clock so the quorum
		// wait downstream is bounded without any cross-host clock
		// agreement.
		start := n.clock.Now()
		deadline := submitDeadline(start, fr.Orig)
		outcome, durable, ierr := n.ingestSubmit(pipe, fr.Seq, group.payloads, group.batches, deadline)
		n.slo.Observe(n.clock.Now().Sub(start))
		switch outcome {
		case submitDuplicate:
			// Already durable (a retry across failover): re-ack, never
			// re-apply.
			n.col.Inc(stats.CtrReplDupFrames)
			if err := WriteFrame(conn, Frame{Type: FrameAck, Term: term, Seq: durable}); err != nil {
				return err
			}
			continue
		case submitGap:
			WriteFrame(conn, Frame{Type: FrameReject, Term: term, Seq: durable})
			return &FrameError{Reason: "client session",
				Err: fmt.Errorf("%w: submit seq %d skips durable seq %d", ErrBadFrame, fr.Seq, durable)}
		case submitStranded:
			// An ingest died between its local append and quorum: our WAL
			// holds a batch no client was ever acked for, which we can
			// neither acknowledge (the quorum never confirmed it) nor
			// accept a retry of (re-appending would double-log it). Step
			// down — rejoining hands the tail to the divergence reseed —
			// and send the client to whoever leads next.
			n.demote(fmt.Sprintf("client batch durable locally but not at quorum: %v", ierr))
			n.refuseClient(conn)
			return ierr
		case submitNotLeader:
			return n.refuseClient(conn)
		}
		if ierr != nil {
			if errors.Is(ierr, serve.ErrFenced) {
				// Deposed mid-ingest: the batch may be in our WAL but it
				// was never acknowledged, and the divergence machinery
				// reconciles it when we rejoin. Redirect the client.
				n.demote(fmt.Sprintf("fenced during client ingest: %v", ierr))
				n.refuseClient(conn)
				return ierr
			}
			var de *serve.DeadlineError
			if errors.As(ierr, &de) {
				// The budget expired before the record reached the log:
				// nothing durable, nothing acknowledged, session healthy.
				// Tell the client which stage the deadline died in and
				// keep serving.
				if err := n.busyReject(conn, term, "!deadline:"+de.Stage, time.Millisecond); err != nil {
					return err
				}
				continue
			}
			if errors.Is(ierr, ErrQuorumLost) {
				// Not logged for want of attached followers (stranding
				// returned above): a fresh leader still mid-attach. Retry
				// after a heartbeat; the session stays.
				if err := n.busyReject(conn, term, "!quorum", n.cfg.HeartbeatEvery); err != nil {
					return err
				}
				continue
			}
			if errors.Is(ierr, serve.ErrDiskPressure) {
				// Read-only under disk pressure: refuse with the disk
				// retry-after hint and keep the session — heartbeats and
				// reads still flow, and ingestion resumes the moment
				// space frees.
				if err := n.busyReject(conn, term, "!disk", diskRetryAfter); err != nil {
					return err
				}
				continue
			}
			// Any other failure ends the session; the client reconnects and
			// the Welcome's durable sequence says where it resumes. A "wal"
			// failure never wrote the record. A "wal-sync" failure wrote it
			// but not its barrier: the client resubmits the same sequence,
			// which re-drives the barrier (the log's one sanctioned
			// repeat). A "checkpoint" failure struck after the group was
			// quorum-durable and applied: durable already counts it, so
			// the client skips past it.
			WriteFrame(conn, Frame{Type: FrameReject, Term: term, Seq: durable})
			return ierr
		}
		// Before the acks go out, what is waiting was sent without them;
		// a pipelining client answers each ack with one more submit.
		if k := len(group.payloads); k > 1 && s.in != nil && s.in.raw != nil {
			owed = k + framesWaiting(s.in, br, gathered)
		}
		if err := writeFrameRun(conn, Frame{Type: FrameAck, Term: term, Seq: fr.Seq}, len(group.payloads)); err != nil {
			return err
		}
		br.Discard(gathered) // cannot fail: gathered bytes are buffered
	}
}

// submitDeadline rebases a Submit's remaining budget in milliseconds
// (0 = no deadline) onto this node's clock. The budget is the client's
// to choose, so it is clamped before the multiply: unclamped, anything
// past ~9.2e12 ms overflows time.Duration, and 1<<63 wraps to exactly 0 —
// "effectively never" read as "already expired".
func submitDeadline(now time.Time, budgetMs uint64) time.Time {
	if budgetMs == 0 {
		return time.Time{}
	}
	return now.Add(time.Duration(min(budgetMs, math.MaxInt64/uint64(time.Millisecond))) * time.Millisecond)
}

// busyReject sends a backpressure refusal on a healthy leader session.
// Orig carries the retry-after hint in milliseconds — floored at 1,
// since Orig 0 would read as a redirect on the wire — and Seq the
// quorum-durable sequence so the client can still advance its acked
// prefix. The session stays open.
func (n *Node) busyReject(conn net.Conn, term uint64, marker string, after time.Duration) error {
	ms := uint64(after / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	return WriteFrame(conn, Frame{
		Type: FrameReject, Term: term, Seq: n.durableSeq(), Orig: ms, Payload: []byte(marker),
	})
}

// roleView reads the current role and term under the state lock.
func (n *Node) roleView() (Role, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role, n.term
}

// durableSeq reads the quorum-acknowledged sequence under the primary
// lock, so it cannot interleave with a client ingest in flight. This —
// never the pipeline's local sequence, which runs ahead of quorum — is
// what Welcome frames and re-acks advertise: a client that is told a
// sequence is durable skips resubmitting it forever, so the promise
// must hold even if this leader is deposed and its tail reseeded away.
func (n *Node) durableSeq() uint64 {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	return n.ackedSeq
}

// submitOutcome says what ingestSubmit did with a client batch.
type submitOutcome int

const (
	submitApplied   submitOutcome = iota // ran the leader ingest; check the error
	submitDuplicate                      // at or below the quorum-acked sequence
	submitGap                            // skips ahead of the quorum-acked sequence
	submitStranded                       // the log holds a tail no quorum confirmed
	submitNotLeader                      // demoted since the session's role check
)

// ingestSubmit runs one commit group of client submissions — seq is its
// first — under the primary lock: duplicate and gap detection against
// the quorum-acknowledged sequence, then Primary.Ingest (append, quorum
// round, apply). The acknowledged sequence advances — by the whole group
// — exactly when the outcome is QuorumDurable, and is what the returned
// durable value reports. A group that was logged but never assembled its
// quorum strands the tail instead: the caller must stop serving, because
// acking or re-ingesting past it would break exactly-once.
func (n *Node) ingestSubmit(pipe *serve.Pipeline, seq uint64, payloads [][]byte, batches [][]graph.Update, deadline time.Time) (submitOutcome, uint64, error) {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	cur := n.ackedSeq
	switch {
	case n.primary == nil:
		return submitNotLeader, cur, nil
	case seq <= cur:
		return submitDuplicate, cur, nil
	case seq > cur+1:
		return submitGap, cur, nil
	}
	if logged := pipe.Seq(); logged != cur {
		// A concurrent session already stranded a tail and its demote is
		// still in flight; refuse rather than append past it.
		return submitStranded, cur, fmt.Errorf(
			"replica: seq %d durable locally but never quorum-acknowledged: %w", logged, ErrQuorumLost)
	}
	//tdgraph:allow lockhold the apply is a pipeline move pmu exists to serialise; the engine waits only for its own worker pool, which takes no lock
	outcome, err := n.primary.Ingest(pipe, payloads, batches, deadline)
	switch {
	case outcome == QuorumDurable:
		n.ackedSeq = pipe.Seq()
		return submitApplied, n.ackedSeq, err
	case outcome == LoggedNotQuorum && !errors.Is(err, serve.ErrFenced):
		// A fenced failure takes the ordinary deposed path instead — it
		// demotes too, with the fencing term in the event trail.
		return submitStranded, cur, err
	}
	return submitApplied, cur, err
}

// Close shuts the node down: sever the active session, uninstall the
// primary, wait for the severed session to unwind, and close the
// pipeline — so a returned Close means nothing is applying records
// anymore and the node's states are safe to read. Cancel Run's context
// first.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	s := n.session
	n.session = nil
	n.mu.Unlock()
	if s != nil {
		s.Close()
	}
	n.pmu.Lock()
	p := n.primary
	n.primary = nil
	if p != nil {
		n.fol.Pipeline().SetRetentionAdvisor(nil)
		p.Close()
	}
	n.pmu.Unlock()
	n.attachWG.Wait()
	return n.fol.Close()
}
