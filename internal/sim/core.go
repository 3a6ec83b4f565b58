package sim

import (
	"github.com/tdgraph/tdgraph/internal/sim/cache"
)

// Phase labels where a core's cycles are spent, so the harness can render
// the paper's execution-time breakdowns (Fig 3a / Fig 10: "state
// propagation time" vs "other time").
type Phase int

const (
	// PhaseOther covers batch application, tracking, indexing, and all
	// bookkeeping outside state propagation.
	PhaseOther Phase = iota
	// PhasePropagate covers fetching graph data along edges and
	// updating vertex states.
	PhasePropagate

	numPhases
)

// Port is the memory/compute interface engines program against. *Core
// implements it against the simulated hierarchy; NullPort implements it
// as a no-op for runs without a machine.
type Port interface {
	// Read models a load of size bytes at addr that the core waits on.
	Read(addr uint64, size int)
	// Write models a store of size bytes at addr.
	Write(addr uint64, size int)
	// Prefetch moves the line like Read but does not stall the core —
	// it models a hardware engine's access overlapped with execution.
	Prefetch(addr uint64, size int)
	// PrefetchWrite is Prefetch for stores (hardware-engine writes).
	PrefetchWrite(addr uint64, size int)
	// Compute charges ops abstract ALU operations to the core.
	Compute(ops int)
	// Stall charges raw cycles (fixed hardware latencies, pipeline
	// occupancy of an attached engine).
	Stall(cycles float64)
	// SetPhase labels subsequent cycles for the breakdown metrics.
	SetPhase(p Phase)
}

// Core is one simulated processor core plus its private caches and the
// TDGraph-style engine attach point.
type Core struct {
	id     int
	m      *Machine
	l1, l2 *cache.Cache
	tlb    *TLB

	cycles        float64
	computeCycles float64
	stallCycles   float64
	phase         Phase
	phaseCycles   [numPhases]float64
}

var _ Port = (*Core)(nil)

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Cycles returns the core's local cycle count (global time after the last
// barrier plus local progress since).
func (c *Core) Cycles() float64 { return c.cycles }

// TLB exposes the core's translation buffer (nil when disabled).
func (c *Core) TLB() *TLB { return c.tlb }

// SetPhase implements Port.
func (c *Core) SetPhase(p Phase) { c.phase = p }

// Compute implements Port.
func (c *Core) Compute(ops int) {
	d := float64(ops) * c.m.cfg.CPI
	c.cycles += d
	c.computeCycles += d
	c.phaseCycles[c.phase] += d
}

// Stall implements Port.
func (c *Core) Stall(cycles float64) {
	c.cycles += cycles
	c.stallCycles += cycles
	c.phaseCycles[c.phase] += cycles
}

// Read implements Port.
func (c *Core) Read(addr uint64, size int) { c.access(addr, size, false, true) }

// Write implements Port.
func (c *Core) Write(addr uint64, size int) { c.access(addr, size, true, true) }

// Prefetch implements Port.
func (c *Core) Prefetch(addr uint64, size int) { c.access(addr, size, false, false) }

// PrefetchWrite implements Port.
func (c *Core) PrefetchWrite(addr uint64, size int) { c.access(addr, size, true, false) }

func (c *Core) access(addr uint64, size int, write, stall bool) {
	c.m.wdCheck()
	if size <= 0 {
		size = 1
	}
	first := cache.LineAddr(addr)
	last := cache.LineAddr(addr + uint64(size) - 1)
	for la := first; la <= last; la += cache.LineSize {
		wordIdx := 0
		if la == first {
			wordIdx = cache.WordIndex(addr)
		}
		c.m.accessLine(c, la, wordIdx, write, stall)
	}
}

// accessLine walks one line through L1 → L2 → LLC → DRAM, maintaining the
// inclusion, directory, and usefulness structures, and charges the core
// for the resulting stall when requested.
func (m *Machine) accessLine(c *Core, la uint64, wordIdx int, write, stall bool) {
	tracked := m.isTracked(la)
	hint := m.hintFor(la)
	dir := m.dirEntry(la)

	m.traceAccess(c.id, la, write, stall)
	var lat uint64
	if c.tlb != nil && !c.tlb.Lookup(la) {
		// Page walk: stalls demand accesses; engine prefetches absorb
		// it in their pipelines (no added latency, but the walk's
		// memory touches are approximated as free — walks hit the
		// cached paging structures overwhelmingly often).
		lat += PageWalkLatency
	}
	r1 := c.l1.Access(la, write, hint, false, -1)
	if !r1.Hit {
		lat += m.cfg.L2Latency
		r2 := c.l2.Access(la, write, hint, false, -1)
		if r2.Evicted != nil {
			m.onPrivateEvict(c, r2.Evicted)
		}
		if !r2.Hit {
			lat += m.mesh.Transfer(c.id%m.mesh.Tiles(), la, cache.LineSize)
			lat += m.cfg.LLCLatency
			r3 := m.llc.Access(la, write, hint, false, -1)
			if r3.Evicted != nil {
				m.onLLCEvict(r3.Evicted)
			}
			if !r3.Hit {
				lat += m.dram.Access(la, false, cache.LineSize)
				if tracked {
					m.useInsert(la)
				}
			}
			if dir != nil {
				*dir |= 1 << uint(c.id)
			}
		}
	}

	if write && dir != nil {
		m.invalidatePeers(c.id, la, dir)
	}

	if tracked {
		m.useMark(la, wordIdx)
	}

	if stall && lat > 0 {
		s := float64(lat) / m.cfg.MLP
		c.cycles += s
		c.stallCycles += s
		c.phaseCycles[c.phase] += s
	}
}

// invalidatePeers performs the directory side of a coherent write: every
// other core holding the line drops its private copies, and the writer
// becomes the sole owner.
func (m *Machine) invalidatePeers(writer int, la uint64, dir *uint64) {
	others := *dir &^ (1 << uint(writer))
	for i := 0; others != 0; i++ {
		if others&1 != 0 {
			peer := m.cores[i]
			peer.l1.Invalidate(la)
			peer.l2.Invalidate(la)
			m.invalidations++
		}
		others >>= 1
	}
	*dir = 1 << uint(writer)
}

// onPrivateEvict handles an L2 victim: enforce L1 inclusion, clear the
// directory presence bit, and propagate dirtiness into the LLC copy.
func (m *Machine) onPrivateEvict(c *Core, ev *cache.Eviction) {
	c.l1.Invalidate(ev.LineAddr)
	if d := m.dirEntry(ev.LineAddr); d != nil {
		*d &^= 1 << uint(c.id)
	}
	if ev.Dirty {
		m.llc.SetDirty(ev.LineAddr)
	}
}

// onLLCEvict handles an LLC victim: write back dirty data, invalidate
// private copies (inclusive hierarchy), and fold usefulness accounting.
func (m *Machine) onLLCEvict(ev *cache.Eviction) {
	if ev.Dirty {
		m.dram.Access(ev.LineAddr, true, cache.LineSize)
	}
	if d := m.dirEntry(ev.LineAddr); d != nil {
		mask := *d
		for i := 0; mask != 0; i++ {
			if mask&1 != 0 {
				m.cores[i].l1.Invalidate(ev.LineAddr)
				m.cores[i].l2.Invalidate(ev.LineAddr)
			}
			mask >>= 1
		}
		*d = 0
	}
	m.useEvict(ev.LineAddr)
}

// NullPort is a Port that models nothing. engine.NewRuntime gives one to
// every core when no machine is attached, so a system's functional run
// takes the same calls as a simulated one.
type NullPort struct{}

var _ Port = NullPort{}

// Read implements Port as a no-op.
func (NullPort) Read(uint64, int) {}

// Write implements Port as a no-op.
func (NullPort) Write(uint64, int) {}

// Prefetch implements Port as a no-op.
func (NullPort) Prefetch(uint64, int) {}

// PrefetchWrite implements Port as a no-op.
func (NullPort) PrefetchWrite(uint64, int) {}

// Compute implements Port as a no-op.
func (NullPort) Compute(int) {}

// Stall implements Port as a no-op.
func (NullPort) Stall(float64) {}

// SetPhase implements Port as a no-op.
func (NullPort) SetPhase(Phase) {}
