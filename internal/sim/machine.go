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
	LLCSizeKB, LLCWays int // KiB: the scaled Fig 23 sweep takes sub-MiB points
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
	cfg.LLCSizeKB = 1 << 10
	return cfg
}

// DefaultConfig mirrors Table 1 of the paper.
func DefaultConfig() Config {
	return Config{
		Cores:    64,
		L1SizeKB: 32, L1Ways: 8,
		L2SizeKB: 256, L2Ways: 8,
		LLCSizeKB: 64 << 10, LLCWays: 16,
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
// Concurrency contract: the machine has no goroutines of its own. Its
// whole API (Port accesses, Alloc, Mark*/Track*, Barrier, Finish,
// counter reads) is driven from the one engine goroutine, and every
// access walks the hierarchy inline before it returns, so a run is
// deterministic by construction: the same config and engine calls give
// bit-identical cycle counts and counters.
type Machine struct {
	cfg   Config
	cores []*Core
	llc   *cache.Cache
	dram  *mem.DRAM
	mesh  *noc.Mesh

	nextAddr uint64

	trackedRanges []Region
	hotRanges     []Region

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
	m := &Machine{
		cfg:      cfg,
		llc:      cache.MustNew("llc", cfg.LLCSizeKB<<10, cfg.LLCWays, cfg.LLCPolicy),
		dram:     mem.New(dcfg),
		mesh:     noc.New(cfg.NoC),
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
// r (the vertex-state arrays, matching Fig 3c / Fig 12).
func (m *Machine) TrackUseful(r Region) {
	m.trackedRanges = append(m.trackedRanges, r)
	if r.Size > 0 {
		m.useShards = append(m.useShards, newUseShard(r))
	}
}

// MarkHot tags r so accesses carry the hot hint consumed by GRASP and by
// the energy model (the Coalesced_States region).
func (m *Machine) MarkHot(r Region) {
	m.hotRanges = append(m.hotRanges, r)
}

// MarkCoherent enables directory-based invalidation accounting for writes
// inside r (writable shared data: states, deltas, bitvectors).
func (m *Machine) MarkCoherent(r Region) {
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

// Time returns the machine's global time (cycles) advanced by barriers.
func (m *Machine) Time() float64 { return m.time }

// Barrier synchronises all cores: global time advances to the slowest
// core's cycle count, bounded below by the DRAM bandwidth roofline for the
// bytes moved during the step, and every core restarts from the new
// global time.
func (m *Machine) Barrier() {
	m.wdPoll()
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
