package sim_test

import (
	"testing"

	"github.com/tdgraph/tdgraph/internal/sim"
)

func TestTLBHitMiss(t *testing.T) {
	tlb := sim.NewTLB(16, 4)
	if tlb.Lookup(0x1000) {
		t.Fatal("cold lookup hit")
	}
	if !tlb.Lookup(0x1fff) {
		t.Fatal("same-page lookup missed")
	}
	if tlb.Lookup(0x2000) {
		t.Fatal("next page hit cold")
	}
	if got, want := tlb.MissRate(), 2.0/3.0; got != want {
		t.Fatalf("miss rate = %v, want %v", got, want)
	}
}

func TestTLBEviction(t *testing.T) {
	tlb := sim.NewTLB(4, 4) // one set, 4 ways
	for p := uint64(0); p < 4; p++ {
		tlb.Lookup(p << 12)
	}
	tlb.Lookup(0) // refresh page 0
	tlb.Lookup(4 << 12)
	// Page 1 should be the LRU victim; page 0 must survive.
	if !tlb.Lookup(0) {
		t.Fatal("refreshed page evicted")
	}
	if tlb.Lookup(1 << 12) {
		t.Fatal("LRU page survived eviction")
	}
}

func TestCoreTLBWired(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Cores = 1
	cfg.L1SizeKB = 8
	cfg.L2SizeKB = 32
	cfg.LLCSizeKB = 1 << 10
	m := sim.New(cfg)
	r := m.Alloc("d", 1<<20)
	c := m.Core(0)
	if c.TLB() == nil {
		t.Fatal("TLB not wired")
	}
	before := c.Cycles()
	c.Read(r.Base, 4)
	if c.TLB().Misses != 1 {
		t.Fatalf("TLB misses = %d", c.TLB().Misses)
	}
	if c.Cycles()-before < float64(sim.PageWalkLatency)/cfg.MLP {
		t.Fatal("page walk not charged")
	}
	// Same page: no further walk.
	c.Read(r.Base+64, 4)
	if c.TLB().Misses != 1 {
		t.Fatal("same-page access walked again")
	}
}
