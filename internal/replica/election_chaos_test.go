package replica

import (
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
// connection to it dies after a single read (fault.NetPartitionRecv)
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
		// Each inbound connection gets its own injector: the partition trip
		// is one-shot per injector, and the deafness must hit every attach
		// attempt, not just the first.
		var wrapSeq int64
		c.net.wrapInbound(deaf.cfg.Addr, func(conn net.Conn) net.Conn {
			inj := fault.New(902 + atomic.AddInt64(&wrapSeq, 1))
			inj.Arm(fault.NetPartitionRecv, 1)
			return inj.Conn(conn)
		})
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
