// Package stats provides lightweight event counters and derived metrics
// shared by every engine, accelerator model, and the architectural
// simulator. Counters are plain uint64 registers grouped in a Collector
// behind a mutex: the simulator is single-goroutine per run (so the lock
// is always uncontended there, and native parallel paths still keep
// per-worker collectors merged at a barrier), but the serving stack bumps
// one collector from its role loop, replication sessions, and client
// handlers at once and needs the synchronization.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Collector is a named set of monotonically increasing counters. Safe
// for concurrent use.
type Collector struct {
	mu       sync.Mutex
	counters map[string]uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{counters: make(map[string]uint64)}
}

// Add increments the named counter by delta, creating it on first use.
func (c *Collector) Add(name string, delta uint64) {
	c.mu.Lock()
	c.counters[name] += delta
	c.mu.Unlock()
}

// Inc increments the named counter by one.
func (c *Collector) Inc(name string) { c.Add(name, 1) }

// Get returns the counter value (zero if never touched).
func (c *Collector) Get(name string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters[name]
}

// Set overwrites the counter value. Used when folding externally computed
// totals (e.g. a merged per-worker sum) into a collector.
func (c *Collector) Set(name string, v uint64) {
	c.mu.Lock()
	c.counters[name] = v
	c.mu.Unlock()
}

// Snapshot returns a copy of the current counter values.
func (c *Collector) Snapshot() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.counters))
	for k, v := range c.counters {
		out[k] = v
	}
	return out
}

// String renders the counters sorted by name, one per line.
func (c *Collector) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%-40s %d\n", n, snap[n])
	}
	return b.String()
}

// Well-known counter names. Engines and the simulator agree on these so
// that the benchmark harness can compute the paper's metrics uniformly.
const (
	// Algorithm-level work.
	CtrStateUpdates      = "algo.state_updates"        // vertex state update operations executed
	CtrStateWrites       = "algo.state_writes"         // update operations that changed the stored state
	CtrUsefulUpdates     = "algo.useful_state_updates" // distinct vertices whose final state changed
	CtrEdgesProcessed    = "algo.edges_processed"
	CtrVerticesProcessed = "algo.vertices_processed"
	CtrActivations       = "algo.activations"
	CtrIterations        = "algo.iterations"
	CtrPropagationVisits = "algo.propagation_visits"
	CtrRedundantRevisit  = "algo.redundant_revisits"
	CtrTagPropagations   = "algo.tag_propagations"
	CtrResets            = "algo.resets"
	CtrDeltaFiltered     = "algo.delta_filtered"   // DZiG-style suppressed near-zero deltas
	CtrWorkSteals        = "algo.work_steals"      // frontier entries migrated by work stealing
	CtrDenseIterations   = "algo.dense_iterations" // pull-direction rounds (Ligra direction optimisation)
	CtrApproxTrims       = "algo.approx_trims"     // KickStarter-style trimmed dependencies

	// Native incremental engine events (internal/native.Session).
	CtrNativeTDTUSkips = "native.tdtu_skips" // dequeues skipped: version already propagated

	// Memory-system events (filled by internal/sim).
	CtrL1Hits        = "mem.l1_hits"
	CtrL1Misses      = "mem.l1_misses"
	CtrL2Hits        = "mem.l2_hits"
	CtrL2Misses      = "mem.l2_misses"
	CtrLLCHits       = "mem.llc_hits"
	CtrLLCMisses     = "mem.llc_misses"
	CtrDRAMReads     = "mem.dram_reads"
	CtrDRAMWrites    = "mem.dram_writes"
	CtrDRAMBytes     = "mem.dram_bytes"
	CtrNoCFlits      = "mem.noc_flits"
	CtrNoCHops       = "mem.noc_hops"
	CtrInvalidations = "mem.invalidations"
	CtrWritebacks    = "mem.writebacks"
	CtrTLBHits       = "mem.tlb_hits"
	CtrTLBMisses     = "mem.tlb_misses"

	// Vertex-state fetch usefulness (per-word tracking in the LLC).
	CtrStateWordsFetched = "mem.state_words_fetched"
	CtrStateWordsUsed    = "mem.state_words_used"

	// Accelerator engine events.
	CtrPrefetchedEdges   = "accel.prefetched_edges"
	CtrPrefetchUseless   = "accel.prefetch_useless"
	CtrStackPushes       = "accel.stack_pushes"
	CtrStackPops         = "accel.stack_pops"
	CtrStackOverflows    = "accel.stack_overflows"
	CtrFetchedBufferFull = "accel.fetched_buffer_full"
	CtrHotHits           = "accel.hot_hits"
	CtrHotMisses         = "accel.hot_misses"
	CtrHTableProbes      = "accel.htable_probes"
	CtrCoalescedInserts  = "accel.coalesced_inserts"
	CtrTrackingVisits    = "accel.tracking_visits"
	CtrEventsEnqueued    = "accel.events_enqueued"
	CtrEventsCoalesced   = "accel.events_coalesced"

	// Software-overhead events (TDGraph-S runtime cost model).
	CtrSWTrackingInstrs = "sw.tracking_instructions"
	CtrSWIndexInstrs    = "sw.index_instructions"
	CtrSWBranchMisses   = "sw.branch_misses"

	// Cycle accounting (filled by internal/sim.Machine).
	CtrCyclesTotal     = "cycles.total"
	CtrCyclesCompute   = "cycles.compute"
	CtrCyclesMemStall  = "cycles.mem_stall"
	CtrCyclesPropagate = "cycles.propagate" // state-propagation portion
	CtrCyclesOther     = "cycles.other"     // tracking/indexing/bookkeeping

	// Ingestion validation (filled by internal/stream.Validator).
	CtrValOutOfRange     = "validate.out_of_range"    // endpoint beyond the vertex set
	CtrValBadWeight      = "validate.bad_weight"      // NaN/±Inf weight
	CtrValSelfLoop       = "validate.self_loop"       // src == dst
	CtrValRejected       = "validate.rejected"        // batches refused under PolicyReject
	CtrValClamped        = "validate.clamped"         // updates repaired under PolicyClamp
	CtrValDropped        = "validate.dropped"         // updates discarded (unsalvageable)
	CtrValQuarantined    = "validate.quarantined"     // vertices placed in quarantine
	CtrValQuarantineHits = "validate.quarantine_hits" // later updates diverted by quarantine

	// Robustness events (fault injection and graceful degradation).
	CtrFaultInjected       = "fault.injected"                // total faults injected this run
	CtrDegradedRecomputes  = "robust.degraded_recomputes"    // audit-triggered full recomputes
	CtrPanicsRecovered     = "robust.panics_recovered"       // panics converted to errors at the API
	CtrCheckpointRecovered = "robust.checkpoint_recoveries"  // loads served by an older generation
	CtrWatchdogTrips       = "robust.watchdog_trips"         // runs aborted by the watchdog
	CtrAuditDivergence     = "robust.audit_divergent_vertex" // vertices failing the audit invariant

	// Durable ingestion events (internal/wal + internal/serve).
	CtrWALAppends       = "wal.appends"              // batches appended to the log
	CtrWALFsyncs        = "wal.fsyncs"               // successful fsyncs of a segment holding unsynced records (a barrier over an already durable log issues none)
	CtrWALRotations     = "wal.segment_rotations"    // segments sealed
	CtrWALRetained      = "wal.segments_removed"     // segments deleted by retention
	CtrWALReplayed      = "wal.records_replayed"     // records reapplied during recovery
	CtrWALTornRecovered = "wal.torn_tail_recoveries" // torn tails truncated at open
	CtrServeIngested    = "serve.batches_ingested"   // batches durably applied
	CtrServeRounds      = "serve.commit_rounds"      // commit groups applied, one WAL barrier each (ingested/rounds = mean group size)
	CtrServeRejected    = "serve.batches_rejected"   // batches refused by validation during ingest
	CtrServeCheckpoints = "serve.checkpoints"        // checkpoint generations written

	// Replication events (internal/replica).
	CtrReplShippedRecords  = "repl.records_shipped"  // records sent to followers (incl. catch-up)
	CtrReplShippedBytes    = "repl.bytes_shipped"    // payload bytes sent to followers
	CtrReplAcks            = "repl.acks"             // follower acknowledgements received
	CtrReplLag             = "repl.lag_sequences"    // max follower lag at the last quorum check
	CtrReplFollowerDrops   = "repl.follower_drops"   // followers dropped (conn error or behind)
	CtrReplQuorumFailures  = "repl.quorum_failures"  // Replicate calls that missed quorum
	CtrReplFailovers       = "repl.failovers"        // follower promotions to primary
	CtrReplFenceRejects    = "repl.fence_rejections" // stale-term frames/sessions rejected
	CtrReplCatchupRecords  = "repl.catchup_records"  // records shipped from the WAL backlog
	CtrReplDupFrames       = "repl.duplicate_frames" // duplicate records re-acked by followers
	CtrReplDivergedRejects = "repl.diverged_rejects" // replicas refused for a conflicting log
	CtrReplReseedOffers    = "repl.reseed_offers"    // snapshot transfers offered to followers
	CtrReplReseedChunks    = "repl.reseed_chunks"    // snapshot chunks shipped/received
	CtrReplReseedResumes   = "repl.reseed_resumes"   // transfers resumed from a partial offset
	CtrReplReseedInstalls  = "repl.reseed_installs"  // snapshots installed by followers
	CtrReplReseedAborts    = "repl.reseed_aborts"    // transfers that failed before install

	// Self-driving cluster events (internal/replica.Node). An election is
	// one candidacy, not one probe round: a starting member probes every
	// peer again and again through its splay (the cold window), and that
	// whole window, closing quorum round included, counts once — so a
	// cold start reads elections=1, not election churn.
	CtrReplHeartbeatsSent   = "repl.heartbeats_sent"   // heartbeat frames shipped to followers
	CtrReplHeartbeatsMissed = "repl.heartbeats_missed" // lease expiries: the primary went silent
	CtrReplElections        = "repl.elections"         // candidacies, at start-up or after a lease expiry
	CtrReplDemotions        = "repl.demotions"         // primaries that stepped down (fenced or isolated)
	CtrReplRedirects        = "repl.redirects"         // client submissions redirected to the leader

	// Overload and resource-exhaustion events (deadlines, SLO admission
	// control, disk-pressure degradation).
	CtrQueueShedSLO         = "queue.shed_slo"              // batches shed by the SLO controller
	CtrServeDeadlineExpired = "serve.deadline_expired"      // batches refused/abandoned past their deadline
	CtrServeDiskPressure    = "serve.disk_pressure_rejects" // ingests refused while under disk pressure
	CtrServeReadonlyEntries = "serve.readonly_entries"      // transitions into read-only (disk full)
	CtrServeReadonlyExits   = "serve.readonly_exits"        // transitions back to writable (space freed)
)
