package sim_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/tdgraph/tdgraph/internal/sim"
	"github.com/tdgraph/tdgraph/internal/stats"
)

func smallMachine(t *testing.T) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Cores = 4
	cfg.L1SizeKB = 8
	cfg.L2SizeKB = 32
	cfg.LLCSizeMB = 1
	return sim.New(cfg)
}

func TestAllocAlignment(t *testing.T) {
	m := smallMachine(t)
	a := m.Alloc("a", 100)
	b := m.Alloc("b", 100)
	if a.Base%4096 != 0 || b.Base%4096 != 0 {
		t.Fatal("allocations not page aligned")
	}
	if b.Base < a.End() {
		t.Fatal("allocations overlap")
	}
	if !a.Contains(a.Base) || a.Contains(a.End()) {
		t.Fatal("region bounds wrong")
	}
}

func TestHierarchyWalk(t *testing.T) {
	m := smallMachine(t)
	r := m.Alloc("data", 1<<16)
	c := m.Core(0)
	c.Read(r.Base, 4)
	// Cold: must have missed through to DRAM.
	if m.DRAM().Reads != 1 {
		t.Fatalf("DRAM reads = %d, want 1", m.DRAM().Reads)
	}
	before := c.Cycles()
	c.Read(r.Base, 4) // L1 hit: no extra stall in the model
	if c.Cycles() != before {
		t.Fatalf("L1 hit charged %v cycles", c.Cycles()-before)
	}
	c.Read(r.Base+8, 4) // same line: still a hit
	if m.DRAM().Reads != 1 {
		t.Fatal("same-line access went to DRAM")
	}
}

func TestCoherenceInvalidation(t *testing.T) {
	m := smallMachine(t)
	r := m.Alloc("shared", 1<<12)
	m.MarkCoherent(r)
	m.Core(0).Read(r.Base, 4)
	m.Core(1).Read(r.Base, 4)
	if m.Invalidations() != 0 {
		t.Fatal("reads caused invalidations")
	}
	m.Core(2).Write(r.Base, 4)
	if m.Invalidations() != 2 {
		t.Fatalf("invalidations = %d, want 2 (cores 0 and 1)", m.Invalidations())
	}
	// A second write by the same core invalidates nobody.
	m.Core(2).Write(r.Base, 4)
	if m.Invalidations() != 2 {
		t.Fatalf("extra invalidations on exclusive write: %d", m.Invalidations())
	}
}

func TestNonCoherentRangeSkipsDirectory(t *testing.T) {
	m := smallMachine(t)
	r := m.Alloc("private", 1<<12)
	m.Core(0).Read(r.Base, 4)
	m.Core(1).Write(r.Base, 4)
	if m.Invalidations() != 0 {
		t.Fatal("non-coherent range tracked by directory")
	}
}

func TestUsefulnessTracking(t *testing.T) {
	m := smallMachine(t)
	r := m.Alloc("states", 1<<12)
	m.TrackUseful(r)
	c := m.Core(0)
	c.Read(r.Base, 4)    // word 0
	c.Read(r.Base+4, 4)  // word 1, same line
	c.Read(r.Base+64, 4) // second line, word 0
	m.Finish()
	fetched, used := m.StateUsefulness()
	if fetched != 32 {
		t.Fatalf("fetched words = %d, want 32 (two lines)", fetched)
	}
	if used != 3 {
		t.Fatalf("used words = %d, want 3", used)
	}
}

func TestBarrierAndRoofline(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.L1SizeKB = 8
	cfg.L2SizeKB = 32
	cfg.LLCSizeMB = 1
	cfg.DRAM.BytesPerCycle = 1 // absurdly slow memory
	m := sim.New(cfg)
	r := m.Alloc("d", 1<<16)
	// Touch 100 distinct lines: 6400 bytes at 1 B/cycle => floor 6400.
	for i := 0; i < 100; i++ {
		m.Core(0).Prefetch(r.Base+uint64(i*64), 4)
	}
	m.Barrier()
	if m.Time() < 6400 {
		t.Fatalf("time %v below bandwidth floor 6400", m.Time())
	}
}

func TestBarrierSynchronisesCores(t *testing.T) {
	m := smallMachine(t)
	m.Core(0).Compute(1000)
	m.Barrier()
	c1 := m.Core(1)
	if c1.Cycles() != m.Time() {
		t.Fatalf("core 1 at %v, machine time %v", c1.Cycles(), m.Time())
	}
}

func TestCollectInto(t *testing.T) {
	m := smallMachine(t)
	r := m.Alloc("d", 1<<12)
	m.TrackUseful(r)
	m.Core(0).Read(r.Base, 4)
	m.Core(0).Compute(10)
	m.Finish()
	col := stats.NewCollector()
	m.CollectInto(col)
	if col.Get(stats.CtrL1Misses) == 0 {
		t.Fatal("L1 misses not collected")
	}
	if col.Get(stats.CtrDRAMBytes) == 0 {
		t.Fatal("DRAM bytes not collected")
	}
	if col.Get(stats.CtrCyclesCompute) == 0 {
		t.Fatal("compute cycles not collected")
	}
	if col.Get(stats.CtrStateWordsFetched) == 0 {
		t.Fatal("usefulness not collected")
	}
}

func TestPrefetchDoesNotStall(t *testing.T) {
	m := smallMachine(t)
	r := m.Alloc("d", 1<<16)
	c := m.Core(0)
	before := c.Cycles()
	c.Prefetch(r.Base, 4)
	if c.Cycles() != before {
		t.Fatal("prefetch stalled the core")
	}
	if m.DRAM().Reads != 1 {
		t.Fatal("prefetch did not move the line")
	}
}

func TestPhaseAccounting(t *testing.T) {
	m := smallMachine(t)
	c := m.Core(0)
	c.SetPhase(sim.PhasePropagate)
	c.Compute(10)
	c.SetPhase(sim.PhaseOther)
	c.Compute(5)
	m.Finish()
	col := stats.NewCollector()
	m.CollectInto(col)
	prop := col.Get(stats.CtrCyclesPropagate)
	other := col.Get(stats.CtrCyclesOther)
	if prop == 0 || other == 0 || prop <= other {
		t.Fatalf("phase split prop=%d other=%d", prop, other)
	}
}

func TestScaledConfig(t *testing.T) {
	cfg := sim.ScaledConfig()
	if cfg.LLCSizeMB >= sim.DefaultConfig().LLCSizeMB {
		t.Fatal("scaled config not smaller")
	}
	if cfg.Cores != sim.DefaultConfig().Cores {
		t.Fatal("scaled config changed core count")
	}
	// Must construct cleanly.
	sim.New(cfg)
}

func TestNullPort(t *testing.T) {
	var p sim.Port = sim.NullPort{}
	p.Read(0, 4)
	p.Write(0, 4)
	p.Prefetch(0, 4)
	p.PrefetchWrite(0, 4)
	p.Compute(1)
	p.Stall(1)
	p.SetPhase(sim.PhasePropagate)
}

func TestLLCEvictionInclusive(t *testing.T) {
	// A tiny LLC forces evictions; evicted lines must leave the private
	// caches too (inclusive), so a re-access misses everywhere.
	cfg := sim.DefaultConfig()
	cfg.Cores = 1
	cfg.L1SizeKB = 8
	cfg.L2SizeKB = 32
	cfg.LLCSizeMB = 1
	m := sim.New(cfg)
	r := m.Alloc("d", 64<<20)
	m.MarkCoherent(r)
	c := m.Core(0)
	c.Read(r.Base, 4)
	// Blow the LLC with > capacity distinct lines.
	lines := (1 << 20) / 64 * 2
	for i := 1; i <= lines; i++ {
		c.Prefetch(r.Base+uint64(i*64), 4)
	}
	dramBefore := m.DRAM().Reads
	c.Read(r.Base, 4)
	if m.DRAM().Reads == dramBefore {
		t.Fatal("line survived LLC wipe — inclusion broken")
	}
}

// TestDRAMConservation: every DRAM read corresponds to an LLC miss and
// every DRAM write to a dirty LLC eviction (byte totals match at 64 B per
// line) — the conservation law behind the Fig 16/20 traffic numbers.
func TestDRAMConservation(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Cores = 2
	cfg.L1SizeKB = 8
	cfg.L2SizeKB = 32
	cfg.LLCSizeMB = 1
	m := sim.New(cfg)
	r := m.Alloc("d", 8<<20)
	m.MarkCoherent(r)
	// A mixed, thrashing access pattern.
	x := uint64(12345)
	for i := 0; i < 200000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := r.Base + (x>>33)%(8<<20)
		core := m.Core(int(x>>63) & 1)
		if x&3 == 0 {
			core.Write(addr, 4)
		} else {
			core.Read(addr, 4)
		}
	}
	m.Finish()
	if m.DRAM().Reads != m.LLC().Misses {
		t.Fatalf("DRAM reads %d != LLC misses %d", m.DRAM().Reads, m.LLC().Misses)
	}
	if got, want := m.DRAM().BytesMoved, (m.DRAM().Reads+m.DRAM().Writes)*64; got != want {
		t.Fatalf("bytes %d != 64*(reads+writes) %d", got, want)
	}
}

// runWorkload drives a mixed workload — coherent, tracked, and hot
// regions, reads/writes/prefetches from all cores, periodic barriers —
// and returns the full counter set plus the final time. procs sets the
// host's GOMAXPROCS for the run (0 leaves it as is). split registers the
// states and hot regions as two MarkCoherent/TrackUseful shards each
// instead of one.
func runWorkload(t *testing.T, procs int, split bool, trace *bytes.Buffer) (*stats.Collector, float64) {
	t.Helper()
	if procs > 0 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
	}
	cfg := sim.DefaultConfig()
	cfg.Cores = 8
	cfg.L1SizeKB = 8
	cfg.L2SizeKB = 32
	cfg.LLCSizeKB = 256
	m := sim.New(cfg)
	if trace != nil {
		m.SetTrace(trace)
	}
	states := m.Alloc("states", 1<<20)
	edges := m.Alloc("edges", 4<<20)
	hot := m.Alloc("hot", 1<<14)
	shards := func(r sim.Region) []sim.Region {
		if !split {
			return []sim.Region{r}
		}
		h := r.Size / 2
		return []sim.Region{
			{Name: r.Name, Base: r.Base, Size: h},
			{Name: r.Name, Base: r.Base + h, Size: r.Size - h},
		}
	}
	for _, r := range shards(states) {
		m.TrackUseful(r)
		m.MarkCoherent(r)
	}
	for _, r := range shards(hot) {
		m.MarkCoherent(r)
	}
	m.MarkHot(hot)

	x := uint64(98765)
	rnd := func(mod uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % mod
	}
	for step := 0; step < 20; step++ {
		for i := 0; i < 2000; i++ {
			c := m.Core(int(rnd(uint64(cfg.Cores))))
			switch rnd(5) {
			case 0:
				c.Write(states.Base+rnd(states.Size), 4)
			case 1:
				c.Read(states.Base+rnd(states.Size), 4)
			case 2:
				c.Read(edges.Base+rnd(edges.Size), 16) // may span lines
			case 3:
				c.Prefetch(edges.Base+rnd(edges.Size), 64)
			case 4:
				if rnd(2) == 0 {
					c.Write(hot.Base+rnd(hot.Size), 8)
				} else {
					c.Read(hot.Base+rnd(hot.Size), 4)
				}
			}
			if i%97 == 0 {
				c.SetPhase(sim.Phase(rnd(2)))
			}
			if i%13 == 0 {
				c.Compute(int(rnd(8)))
			}
		}
		m.Barrier()
	}
	m.Finish()
	col := stats.NewCollector()
	m.CollectInto(col)
	return col, m.Time()
}

// compareCounters reports every machine counter on which got differs
// from want; label names the run being compared.
func compareCounters(t *testing.T, label string, want, got *stats.Collector) {
	t.Helper()
	for _, ctr := range []string{
		stats.CtrL1Hits, stats.CtrL1Misses,
		stats.CtrL2Hits, stats.CtrL2Misses,
		stats.CtrLLCHits, stats.CtrLLCMisses,
		stats.CtrDRAMReads, stats.CtrDRAMWrites, stats.CtrDRAMBytes,
		stats.CtrNoCFlits, stats.CtrNoCHops,
		stats.CtrInvalidations, stats.CtrWritebacks,
		stats.CtrTLBHits, stats.CtrTLBMisses,
		stats.CtrStateWordsFetched, stats.CtrStateWordsUsed,
		stats.CtrCyclesCompute, stats.CtrCyclesMemStall,
		stats.CtrCyclesPropagate, stats.CtrCyclesOther,
		stats.CtrCyclesTotal,
	} {
		if w, g := want.Get(ctr), got.Get(ctr); w != g {
			t.Errorf("%s: counter %s = %d, want %d", label, ctr, g, w)
		}
	}
}

// TestMachineDeterminism: two runs of the mixed workload agree on every
// counter, the final time and the trace bytes.
func TestMachineDeterminism(t *testing.T) {
	var ta, tb bytes.Buffer
	a, at := runWorkload(t, 0, false, &ta)
	b, bt := runWorkload(t, 0, false, &tb)
	if at != bt {
		t.Errorf("time %v != %v", bt, at)
	}
	compareCounters(t, "second run", a, b)
	if ta.Len() == 0 {
		t.Fatal("no trace produced")
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatal("traces differ between two runs")
	}
}

// TestHostParDeterminism: the machine runs on one engine goroutine, so
// its results do not depend on the host's parallelism: the mixed
// workload agrees on every counter and the final time at GOMAXPROCS
// 1, 2, 4 and 8.
func TestHostParDeterminism(t *testing.T) {
	ref, refTime := runWorkload(t, 1, false, nil)
	for _, procs := range []int{2, 4, 8} {
		got, gotTime := runWorkload(t, procs, false, nil)
		label := fmt.Sprintf("GOMAXPROCS=%d", procs)
		if gotTime != refTime {
			t.Errorf("%s: time %v != %v", label, gotTime, refTime)
		}
		compareCounters(t, label, ref, got)
	}
}

// TestHostParTraceDeterministic: the access trace does not depend on the
// host's parallelism either.
func TestHostParTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	runWorkload(t, 1, false, &a)
	runWorkload(t, 4, false, &b)
	if a.Len() == 0 {
		t.Fatal("no trace produced")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("trace differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
}

// TestHostParCountersConserved: the DRAM conservation law of
// TestDRAMConservation (every DRAM read is an LLC miss; 64 bytes per
// transfer) also holds on the mixed workload — eight cores, prefetches,
// hot and tracked regions, barriers — run at GOMAXPROCS 4.
func TestHostParCountersConserved(t *testing.T) {
	col, _ := runWorkload(t, 4, false, nil)
	reads, writes := col.Get(stats.CtrDRAMReads), col.Get(stats.CtrDRAMWrites)
	if misses := col.Get(stats.CtrLLCMisses); reads != misses {
		t.Fatalf("DRAM reads %d != LLC misses %d", reads, misses)
	}
	if got, want := col.Get(stats.CtrDRAMBytes), (reads+writes)*64; got != want {
		t.Fatalf("bytes %d != 64*(reads+writes) %d", got, want)
	}
}

// TestInlineShardEquivalence: the coherence directory and usefulness
// table keep one array shard per MarkCoherent / TrackUseful call, and how
// a region is cut into shards must not change any result: registering
// the states and hot regions as two shards each gives the same counters,
// final time and trace as one shard each.
func TestInlineShardEquivalence(t *testing.T) {
	var ta, tb bytes.Buffer
	a, at := runWorkload(t, 0, false, &ta)
	b, bt := runWorkload(t, 0, true, &tb)
	if at != bt {
		t.Errorf("time with split shards %v != %v", bt, at)
	}
	compareCounters(t, "split shards", a, b)
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatal("trace differs between one and two shards per region")
	}
}
