package replica

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"github.com/tdgraph/tdgraph/internal/fault"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// These stories are the hands-off counterpart of chaos_test.go: nobody
// calls Promote. Nodes run their own lease monitors and elections on
// the manual clock, the client chases the leader through redirect
// hints, and the stories only inject failures; the oracle judges the
// end.

// runHandsOffTrial kills the leader under client load and keeps its
// hands off: the survivors elect on their own, the client fails over
// through redirects, the deposed member restarts and rejoins, and the
// whole cluster must converge on the uninterrupted run's states.
func runHandsOffTrial(t *testing.T, trial int) digest {
	w := testWorkload(t, 16)
	c := newCluster(t, w, newManualClock())
	c.trio(fastTiming, int64(trial*100))
	driveUntil(t, c.clk, "initial election", c.hasLeader)

	// Kill whoever leads as the client sends batch 5, sockets first the
	// way a crashed process goes — hands off from here.
	var victim *liveNode
	c.net.tapWrites(onSubmit(5, func(addr string) {
		victim = c.member(addr)
		c.net.setDown(addr, true)
		victim.stop()
	}))
	cl := c.client(int64(trial))
	c.feed(cl, w.Batches)
	if victim == nil {
		t.Fatal("the kill never fired")
	}

	// The deposed member restarts from its own disks and must rejoin —
	// catching up, or reseeding if its unacknowledged tail diverged.
	c.restart(victim, int64(trial*100+50))
	driveUntil(t, c.clk, "full cluster convergence", c.converged)
	return c.end(cl, nil)
}

// TestChaosHandsOffFailover: kill-the-leader-under-load trials with no
// operator in the loop.
func TestChaosHandsOffFailover(t *testing.T) {
	trials(t, 3, runHandsOffTrial)
}

// TestChaosAsymmetricPartition: one follower goes deaf — every inbound
// connection to it dies after a single read (fault.Conn.PartitionRecv)
// while its own outbound dials still work. The deaf node's elections
// must defer to the leader everyone else still hears (leader
// stickiness), leadership and terms must hold steady, and healing the
// partition must let the deaf node catch all the way up over a
// same-term reattach.
func TestChaosAsymmetricPartition(t *testing.T) {
	twice(t, func(t *testing.T) digest {
		w := testWorkload(t, 12)
		c := newCluster(t, w, newManualClock())
		c.trio(fastTiming, 900)
		driveUntil(t, c.clk, "initial election", c.hasLeader)
		leader := c.leader()

		// Feed half the workload, then partition the reads of one follower.
		cl := c.client(901)
		c.feed(cl, w.Batches[:6])
		var deaf *liveNode
		for _, m := range c.members {
			if m != leader {
				deaf = m
				break
			}
		}
		c.net.wrapInbound(deaf.cfg.Addr, deafAfterOneRead)
		c.net.sever(deaf.cfg.Addr)

		// The deaf node's lease expires and it keeps standing for election;
		// every candidacy must lose to the live leader.
		deafCol := deaf.Follower().Pipeline().Collector()
		driveUntil(t, c.clk, "deaf node candidacies", func() bool {
			return deafCol.Get(stats.CtrReplElections) >= 3
		})
		c.feed(cl, w.Batches[:9])
		if got := c.leader(); got != leader {
			t.Fatalf("leadership moved during an asymmetric partition: %v", got)
		}
		if deaf.Role() == RoleLeader {
			t.Fatal("deaf node deposed a healthy leader")
		}
		for _, m := range c.members {
			if got := m.Follower().Pipeline().Collector().Get(stats.CtrReplDemotions); got != 0 {
				t.Fatalf("%s demoted %d times during an asymmetric partition", m.cfg.Addr, got)
			}
		}

		// Heal: the leader reattaches the deaf node at the *same* term (a
		// reconnect, not a new claim) and it converges.
		c.net.wrapInbound(deaf.cfg.Addr, nil)
		c.feed(cl, w.Batches)
		driveUntil(t, c.clk, "deaf node catch-up after heal", c.converged)
		if got := leader.Term(); got != deaf.Follower().Term() {
			t.Fatalf("healed node at term %d, leader at %d", deaf.Follower().Term(), got)
		}
		return c.end(cl, nil)
	})
}

// TestChaosStickinessAloneHoldsLeader: the deaf follower of
// TestChaosAsymmetricPartition, where nothing but leader stickiness
// keeps it from deposing the leader. The cluster is idle, the deaf
// follower holds the whole log, and it has the lowest address, so every
// peer's log ties with its own and it outranks them all. Its candidacies
// must still defer, lease after lease, to the leader its peers hear, and
// no member's leader or term may move.
func TestChaosStickinessAloneHoldsLeader(t *testing.T) {
	twice(t, func(t *testing.T) digest {
		w := testWorkload(t, 6)
		c := newCluster(t, w, newManualClock())
		// Among equal logs alpha wins the ranking: keep it partitioned
		// until beta or gamma leads, then let it join and catch up.
		c.net.isolate("alpha", true)
		c.trio(fastTiming, 950)
		driveUntil(t, c.clk, "election without alpha", c.hasLeader)
		cl := c.client(951)
		c.feed(cl, w.Batches)
		c.net.isolate("alpha", false)
		driveUntil(t, c.clk, "alpha caught up", c.converged)
		leader, deaf := c.leader(), c.member("alpha")
		term := leader.Term()

		c.net.wrapInbound("alpha", deafAfterOneRead)
		c.net.sever("alpha")
		deafCol := deaf.Follower().Pipeline().Collector()
		cut := deafCol.Get(stats.CtrReplElections)
		driveUntil(t, c.clk, "deaf node candidacies", func() bool {
			return deaf.Role() == RoleLeader || deafCol.Get(stats.CtrReplElections) >= cut+4
		})
		if got := c.leader(); got != leader {
			t.Fatalf("leadership moved from %s while only alpha was deaf", leader.cfg.Addr)
		}
		for _, m := range c.members {
			if got := m.Term(); got != term {
				t.Fatalf("%s at term %d after the cut, want %d", m.cfg.Addr, got, term)
			}
		}

		return c.end(cl, nil)
	})
}

// TestChaosLeaderIsolationHeals: the leader is partitioned from both
// followers mid-load. The majority side elects a new leader and keeps
// serving the client; the isolated ex-leader steps itself down after a
// lease of missed quorums; healing the partition lets it rejoin as a
// follower and converge.
func TestChaosLeaderIsolationHeals(t *testing.T) {
	twice(t, func(t *testing.T) digest {
		w := testWorkload(t, 16)
		c := newCluster(t, w, newManualClock())
		c.trio(fastTiming, 700)
		driveUntil(t, c.clk, "initial election", c.hasLeader)

		// Isolate whoever leads as the client sends batch 5.
		var isolated atomic.Pointer[liveNode]
		c.net.tapWrites(onSubmit(5, func(addr string) {
			isolated.Store(c.member(addr))
			c.net.isolate(addr, true)
		}))
		cl := c.client(703)
		run := c.runClient(cl, w.Batches)

		// The isolated ex-leader must step itself down, not serve a
		// minority partition forever.
		driveUntil(t, c.clk, "isolated leader steps down", func() bool {
			m := isolated.Load()
			return m != nil && m.Role() != RoleLeader
		})
		ex := isolated.Load()
		if got := ex.Follower().Pipeline().Collector().Get(stats.CtrReplDemotions); got < 1 {
			t.Fatalf("isolated leader demotions = %d, want >= 1", got)
		}
		// The majority side keeps the client going to completion.
		driveUntil(t, c.clk, "client completion", run.done)
		if run.err != nil {
			t.Fatalf("client did not survive the leader's isolation: %v", run.err)
		}

		// Heal: the deposed member rejoins the new leader's cluster.
		c.net.isolate(ex.cfg.Addr, false)
		driveUntil(t, c.clk, "rejoin after heal", c.converged)
		return c.end(cl, nil)
	})
}

// deafAfterOneRead wraps an inbound connection to go deaf after its
// first read. Each connection trips on its own, so the deafness hits
// every attach attempt, not just the first.
func deafAfterOneRead(conn net.Conn) net.Conn {
	fc := fault.NewConn(conn, 0)
	fc.PartitionRecv(1)
	return fc
}

// failSync is a WAL filesystem that fails the fsync numbered at, once,
// counting in syncs from 1 across every file the member syncs: term
// file, log segments and checkpoints alike. The disk is healthy before
// and after.
func failSync(at int32, syncs *atomic.Int32) *fault.FS {
	return fault.NewFS(func(op fault.Op, _ string) error {
		switch {
		case op == fault.OpFreeSpace:
			return errors.ErrUnsupported // no probe
		case op == fault.OpSync && syncs.Add(1) == at:
			return errors.New("injected one-shot fsync failure")
		}
		return nil
	})
}

// TestChaosOneMemberSyncFailure: a one-member cluster — what
// tdgraph-serve -role solo runs — whose disk fails one fsync, at each of
// the first six barriers in turn: the term claim's one, then the first
// five batches' WAL barriers. Nothing restarts: a failed term claim is a
// failed candidacy the next election retries, and a failed WAL barrier
// is refused to the client, which resubmits the same batch at the same
// sequence, the log's one sanctioned repeat. Every batch is acked and
// applied once, and the states match the reference.
func TestChaosOneMemberSyncFailure(t *testing.T) {
	trials(t, 6, func(t *testing.T, trial int) digest {
		w := testWorkload(t, 6)
		c := newCluster(t, w, newManualClock())
		cfg := fastTiming
		cfg.Addr, cfg.Seed = "solo", int64(800+trial)
		cfg.Pipeline = nodeConfig(w, t.TempDir())
		cfg.Pipeline.CheckpointEvery = -1
		syncs := new(atomic.Int32)
		cfg.Pipeline.WAL.FS = failSync(int32(trial+1), syncs)
		m := c.start(cfg)

		cl := c.client(int64(810 + trial))
		c.feed(cl, w.Batches)
		if syncs.Load() <= int32(trial+1) {
			t.Fatalf("%d fsyncs: the failure at fsync %d never struck", syncs.Load(), trial+1)
		}
		col := m.Follower().Pipeline().Collector()
		if got := col.Get(stats.CtrServeIngested); got != uint64(len(w.Batches)) {
			t.Errorf("applied %d batches, want each of the %d once", got, len(w.Batches))
		}
		return c.end(cl, pin(col, stats.CtrServeIngested, stats.CtrWALAppends, stats.CtrReplElections))
	})
}
