// Package sim composes the architectural model of Table 1: 64 OOO cores
// with private L1/L2 caches, a shared banked LLC reached over an 8×8 mesh,
// MESI-style invalidation accounting over writable ranges, and DDR4-style
// main memory. Engines (software baselines, the TDGraph model, and the
// accelerator baselines) perform every vertex-state, offset, and neighbour
// access through Core's Read/Write/Prefetch API with real byte addresses,
// so cache-line sharing, miss rates, useful-fetch ratios, and off-chip
// traffic are measured rather than asserted.
//
// Timing is a deliberate simplification of ZSim's OOO model (see
// DESIGN.md): cores accumulate compute cycles via an ops×CPI model and
// memory-stall cycles as miss latency divided by an overlap (MLP) factor;
// supersteps end in barriers where the machine applies a bandwidth
// roofline (a step can finish no faster than its DRAM traffic divided by
// peak bandwidth). This preserves the relative orderings the paper
// reports without per-instruction pipeline simulation.
package sim

import (
	"bufio"
	"context"
	"fmt"

	"github.com/tdgraph/tdgraph/internal/sim/cache"
	"github.com/tdgraph/tdgraph/internal/sim/mem"
	"github.com/tdgraph/tdgraph/internal/sim/noc"
	"github.com/tdgraph/tdgraph/internal/stats"
)

// Config describes the simulated system. DefaultConfig reproduces Table 1.
type Config struct {
	Cores int

	L1SizeKB, L1Ways   int
	L2SizeKB, L2Ways   int
	LLCSizeMB, LLCWays int
	// LLCSizeKB, when non-zero, overrides LLCSizeMB with KiB
	// granularity (the scaled Fig 23 sweep needs sub-MiB points).
	LLCSizeKB int
	// LLCPolicy selects the shared-cache replacement policy: "lru",
	// "drrip" (Table 1 default), "grasp", or "popt".
	LLCPolicy string

	// Latencies in core cycles (Table 1).
	L1Latency, L2Latency, LLCLatency uint64

	DRAM mem.Config
	NoC  noc.Config

	// MLP divides miss latency to model out-of-order overlap of
	// independent misses.
	MLP float64
	// CPI is the cycles charged per abstract compute operation.
	CPI float64
	// BandwidthScale scales DRAM bandwidth for the Fig 20 sweep.
	BandwidthScale float64

	// TLBEntries/TLBWays size each core's L2 TLB (Fig 5: the TDGraph
	// engine translates through it). Zero disables TLB modelling.
	TLBEntries, TLBWays int

	// HostParallelism selects the machine's execution backend.
	//
	//   0 (default): the classic inline backend — every Port access walks
	//   the full hierarchy synchronously on the calling goroutine, and
	//   cycle counts/counters are up to date after every access.
	//
	//   N >= 1: the phase-merged backend — Port accesses are recorded in
	//   per-core event logs and replayed at the next Barrier in three
	//   phases: private L1/L2/TLB replay across min(N, Cores) host worker
	//   goroutines, a serial merge of shared-level events (mesh, LLC,
	//   DRAM, directory, usefulness) in canonical core order, then
	//   parallel per-core stall application. Results are bit-identical
	//   for every N >= 1 — the worker count never influences replay
	//   order — and deterministic across runs; counters and cycle counts
	//   are authoritative only after a Barrier or Finish.
	//
	// The two backends agree on functional behaviour and on determinism
	// but not bit-for-bit on timing: the inline backend applies coherence
	// invalidations and inclusive back-invalidations at the exact access
	// that triggers them, while the phase-merged backend defers shared
	// events to the barrier (see DESIGN.md, "Machine concurrency
	// contract").
	HostParallelism int
}

// ScaledConfig returns the Table 1 machine with its cache capacities
// scaled down to match the benchmark harness's reduced dataset sizes: the
// paper's 64 MB LLC versus multi-gigabyte graphs corresponds to roughly a
// 1 MB LLC (and proportionally smaller private caches) against the scaled
// presets, preserving the cache-pressure regime the evaluation depends
// on. Latencies, core counts, NoC and DRAM stay at Table 1 values.
func ScaledConfig() Config {
	cfg := DefaultConfig()
	cfg.L1SizeKB = 8
	cfg.L2SizeKB = 32
	cfg.LLCSizeMB = 1
	return cfg
}

// DefaultConfig mirrors Table 1 of the paper.
func DefaultConfig() Config {
	return Config{
		Cores:    64,
		L1SizeKB: 32, L1Ways: 8,
		L2SizeKB: 256, L2Ways: 8,
		LLCSizeMB: 64, LLCWays: 16,
		LLCPolicy: "drrip",
		L1Latency: 4, L2Latency: 7, LLCLatency: 27,
		TLBEntries: 1536, TLBWays: 12,
		DRAM:           mem.DefaultConfig(),
		NoC:            noc.DefaultConfig(),
		MLP:            4,
		CPI:            0.4,
		BandwidthScale: 1,
	}
}

// Region is a named, contiguous simulated-memory allocation.
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// End returns one past the region's last byte.
func (r Region) End() uint64 { return r.Base + r.Size }

// Machine is one simulated many-core system instance.
//
// Concurrency contract: the engine-facing API (Port accesses, Alloc,
// Mark*/Track*, Barrier, Finish, counter reads) must be driven from a
// single goroutine — engines stay deterministic by construction. With
// Config.HostParallelism >= 1 the machine internally fans per-simulated-
// core replay work out across host worker goroutines between the access
// calls and the barrier; that parallelism is invisible to callers (all
// workers join before Barrier returns) and never affects results: shared
// structures (mesh, LLC, DRAM, directory, usefulness shards) are only
// touched during the serial merge phase, in canonical core order, so any
// worker count produces bit-identical cycle counts and counters.
// `go test -race ./...` runs clean over the parallel backend.
type Machine struct {
	cfg   Config
	cores []*Core
	llc   *cache.Cache
	dram  *mem.DRAM
	mesh  *noc.Mesh

	// hostPar caches Config.HostParallelism: 0 = inline backend,
	// >= 1 = phase-merged backend with that many replay workers.
	hostPar int

	nextAddr uint64

	trackedRanges  []Region
	hotRanges      []Region
	coherentRanges []Region

	// dirShards is the coherence directory — per coherent region, a
	// bitmask of cores whose private caches hold each line (Cores <= 64).
	dirShards []dirShard

	// useShards track per-word usefulness of tracked lines across the
	// whole hierarchy (see DESIGN.md: level-independent tracking).
	useShards []useShard

	invalidations uint64
	stateFetched  uint64 // words
	stateUsed     uint64 // words

	// trace, when non-nil, receives one record per line access.
	trace *bufio.Writer

	// Global timeline: barriers synchronise all cores to it.
	time          float64
	stepStartByte uint64

	finished bool

	// Watchdog (see watchdog.go): when wdCtx is non-nil, the engine
	// goroutine polls it (amortised in access, exactly at barriers) and
	// panics *WatchdogError once it is done. wdCount strides the polls.
	wdCtx   context.Context
	wdCount uint64
}

// New builds a machine for the config. Invalid cache geometry panics:
// configurations are fixed per experiment and validated by tests.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		panic("sim: config needs at least one core")
	}
	if cfg.Cores > 64 {
		panic("sim: directory bitmask supports at most 64 cores")
	}
	if cfg.MLP <= 0 {
		cfg.MLP = 1
	}
	if cfg.CPI <= 0 {
		cfg.CPI = 0.4
	}
	if cfg.BandwidthScale <= 0 {
		cfg.BandwidthScale = 1
	}
	dcfg := cfg.DRAM
	dcfg.BytesPerCycle *= cfg.BandwidthScale
	llcBytes := cfg.LLCSizeMB << 20
	if cfg.LLCSizeKB > 0 {
		llcBytes = cfg.LLCSizeKB << 10
	}
	if cfg.HostParallelism < 0 {
		cfg.HostParallelism = 0
	}
	m := &Machine{
		cfg:      cfg,
		llc:      cache.MustNew("llc", llcBytes, cfg.LLCWays, cfg.LLCPolicy),
		dram:     mem.New(dcfg),
		mesh:     noc.New(cfg.NoC),
		hostPar:  cfg.HostParallelism,
		nextAddr: 1 << 20, // leave a guard page at zero
	}
	m.cores = make([]*Core, cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &Core{
			id: i,
			m:  m,
			l1: cache.MustNew(fmt.Sprintf("l1.%d", i), cfg.L1SizeKB<<10, cfg.L1Ways, "lru"),
			l2: cache.MustNew(fmt.Sprintf("l2.%d", i), cfg.L2SizeKB<<10, cfg.L2Ways, "lru"),
		}
		if cfg.TLBEntries > 0 && cfg.TLBWays > 0 {
			m.cores[i].tlb = NewTLB(cfg.TLBEntries, cfg.TLBWays)
		}
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// DRAM exposes the memory device for counter reads.
func (m *Machine) DRAM() *mem.DRAM { return m.dram }

// Mesh exposes the NoC for counter reads.
func (m *Machine) Mesh() *noc.Mesh { return m.mesh }

// LLC exposes the shared cache for counter reads.
func (m *Machine) LLC() *cache.Cache { return m.llc }

// Alloc reserves bytes of simulated memory, 4 KiB aligned.
func (m *Machine) Alloc(name string, bytes uint64) Region {
	const align = 4096
	base := (m.nextAddr + align - 1) &^ (align - 1)
	m.nextAddr = base + bytes
	return Region{Name: name, Base: base, Size: bytes}
}

// TrackUseful enables per-word usefulness accounting for accesses inside
// r (the vertex-state arrays, matching Fig 3c / Fig 12). Region marks
// drain any deferred accesses first so pending work replays under the
// configuration it was issued against.
func (m *Machine) TrackUseful(r Region) {
	m.drain()
	m.trackedRanges = append(m.trackedRanges, r)
	if r.Size > 0 {
		m.useShards = append(m.useShards, newUseShard(r))
	}
}

// MarkHot tags r so accesses carry the hot hint consumed by GRASP and by
// the energy model (the Coalesced_States region).
func (m *Machine) MarkHot(r Region) {
	m.drain()
	m.hotRanges = append(m.hotRanges, r)
}

// MarkCoherent enables directory-based invalidation accounting for writes
// inside r (writable shared data: states, deltas, bitvectors).
func (m *Machine) MarkCoherent(r Region) {
	m.drain()
	m.coherentRanges = append(m.coherentRanges, r)
	if r.Size > 0 {
		m.dirShards = append(m.dirShards, newDirShard(r))
	}
}

func (m *Machine) isTracked(addr uint64) bool {
	for i := range m.trackedRanges {
		if m.trackedRanges[i].Contains(addr) {
			return true
		}
	}
	return false
}

func (m *Machine) hintFor(addr uint64) cache.Hint {
	for i := range m.hotRanges {
		if m.hotRanges[i].Contains(addr) {
			return cache.HintHot
		}
	}
	return cache.HintNone
}

func (m *Machine) isCoherent(addr uint64) bool {
	for i := range m.coherentRanges {
		if m.coherentRanges[i].Contains(addr) {
			return true
		}
	}
	return false
}

// Time returns the machine's global time (cycles) advanced by barriers.
func (m *Machine) Time() float64 { return m.time }

// Barrier synchronises all cores: any deferred accesses are drained
// (replayed) first, then global time advances to the slowest core's
// cycle count, bounded below by the DRAM bandwidth roofline for the
// bytes moved during the step, and every core restarts from the new
// global time.
func (m *Machine) Barrier() {
	m.wdPoll()
	m.drain()
	maxCycles := m.time
	for _, c := range m.cores {
		if c.cycles > maxCycles {
			maxCycles = c.cycles
		}
	}
	stepBytes := m.dram.BytesMoved - m.stepStartByte
	bwFloor := m.time + m.dram.BandwidthCycles(stepBytes)
	if bwFloor > maxCycles {
		maxCycles = bwFloor
	}
	m.time = maxCycles
	m.stepStartByte = m.dram.BytesMoved
	for _, c := range m.cores {
		c.cycles = maxCycles
	}
}

// Finish runs a final barrier, folds still-resident tracked lines into
// the usefulness totals, and returns the total time. Idempotent.
func (m *Machine) Finish() float64 {
	if m.finished {
		return m.time
	}
	m.Barrier()
	if err := m.FlushTrace(); err != nil {
		// Trace sinks are diagnostics; a failed flush must not abort
		// the simulation result, but it should not pass silently.
		fmt.Printf("sim: trace flush failed: %v\n", err)
	}
	m.useFlush()
	m.finished = true
	return m.time
}

// CollectInto copies all machine counters into the collector under the
// well-known stats names.
func (m *Machine) CollectInto(c *stats.Collector) {
	var l1h, l1m, l2h, l2m uint64
	for _, core := range m.cores {
		l1h += core.l1.Hits
		l1m += core.l1.Misses
		l2h += core.l2.Hits
		l2m += core.l2.Misses
	}
	c.Add(stats.CtrL1Hits, l1h)
	c.Add(stats.CtrL1Misses, l1m)
	c.Add(stats.CtrL2Hits, l2h)
	c.Add(stats.CtrL2Misses, l2m)
	c.Add(stats.CtrLLCHits, m.llc.Hits)
	c.Add(stats.CtrLLCMisses, m.llc.Misses)
	c.Add(stats.CtrDRAMReads, m.dram.Reads)
	c.Add(stats.CtrDRAMWrites, m.dram.Writes)
	c.Add(stats.CtrDRAMBytes, m.dram.BytesMoved)
	c.Add(stats.CtrNoCFlits, m.mesh.Flits)
	c.Add(stats.CtrNoCHops, m.mesh.Hops)
	c.Add(stats.CtrInvalidations, m.invalidations)
	c.Add(stats.CtrWritebacks, m.llc.Writebacks)
	var tlbH, tlbM uint64
	for _, core := range m.cores {
		if core.tlb != nil {
			tlbH += core.tlb.Hits
			tlbM += core.tlb.Misses
		}
	}
	c.Add(stats.CtrTLBHits, tlbH)
	c.Add(stats.CtrTLBMisses, tlbM)
	c.Add(stats.CtrStateWordsFetched, m.stateFetched)
	c.Add(stats.CtrStateWordsUsed, m.stateUsed)
	var compute, stall, prop, other float64
	for _, core := range m.cores {
		compute += core.computeCycles
		stall += core.stallCycles
		prop += core.phaseCycles[PhasePropagate]
		other += core.phaseCycles[PhaseOther]
	}
	c.Add(stats.CtrCyclesCompute, uint64(compute))
	c.Add(stats.CtrCyclesMemStall, uint64(stall))
	c.Add(stats.CtrCyclesPropagate, uint64(prop))
	c.Add(stats.CtrCyclesOther, uint64(other))
	c.Set(stats.CtrCyclesTotal, uint64(m.time))
}

// StateUsefulness returns (fetched, used) state words so far (call after
// Finish for final numbers).
func (m *Machine) StateUsefulness() (fetched, used uint64) {
	return m.stateFetched, m.stateUsed
}

// Invalidations returns the coherence invalidation count.
func (m *Machine) Invalidations() uint64 { return m.invalidations }
