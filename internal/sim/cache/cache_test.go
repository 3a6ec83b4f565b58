package cache_test

import (
	"testing"
	"testing/quick"

	"github.com/tdgraph/tdgraph/internal/sim/cache"
)

func mustCache(t *testing.T, size, ways int, policy string) *cache.Cache {
	t.Helper()
	c, err := cache.New("test", size, ways, policy)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometryValidation(t *testing.T) {
	if _, err := cache.New("bad", 0, 4, "lru"); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := cache.New("bad", 3*64, 2, "lru"); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
	if _, err := cache.New("bad", 1<<12, 4, "nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestHitMiss(t *testing.T) {
	c := mustCache(t, 4096, 4, "lru") // 16 sets
	r := c.Access(0, false, cache.HintNone, false, -1)
	if r.Hit {
		t.Fatal("cold access hit")
	}
	r = c.Access(0, false, cache.HintNone, false, -1)
	if !r.Hit {
		t.Fatal("warm access missed")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustCache(t, 2*64, 2, "lru") // 1 set, 2 ways
	c.Access(0, false, cache.HintNone, false, -1)
	c.Access(64, false, cache.HintNone, false, -1)
	c.Access(0, false, cache.HintNone, false, -1) // refresh line 0
	r := c.Access(128, false, cache.HintNone, false, -1)
	if r.Evicted == nil || r.Evicted.LineAddr != 64 {
		t.Fatalf("evicted %+v, want line 64", r.Evicted)
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustCache(t, 2*64, 2, "lru")
	c.Access(0, true, cache.HintNone, false, -1)
	c.Access(64, false, cache.HintNone, false, -1)
	r := c.Access(128, false, cache.HintNone, false, -1)
	if r.Evicted == nil || !r.Evicted.Dirty || r.Evicted.LineAddr != 0 {
		t.Fatalf("want dirty eviction of line 0, got %+v", r.Evicted)
	}
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Writebacks)
	}
}

func TestInvalidateAndSetDirty(t *testing.T) {
	c := mustCache(t, 4096, 4, "lru")
	c.Access(0, false, cache.HintNone, false, -1)
	if !c.SetDirty(0) {
		t.Fatal("SetDirty missed resident line")
	}
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Fatalf("invalidate = %v,%v", present, dirty)
	}
	if present, _ := c.Invalidate(0); present {
		t.Fatal("double invalidate found line")
	}
	if c.SetDirty(0) {
		t.Fatal("SetDirty hit after invalidate")
	}
}

func TestUsefulnessMasks(t *testing.T) {
	c := mustCache(t, 2*64, 2, "lru")
	c.Access(0, false, cache.HintNone, true, 3) // fetch tracked line, touch word 3
	c.Access(0, false, cache.HintNone, true, 1) // same line, touch word 1
	// Evict it.
	c.Access(64, false, cache.HintNone, false, -1)
	r := c.Access(128, false, cache.HintNone, false, -1)
	ev := r.Evicted
	if ev == nil || !ev.Tracked {
		t.Fatalf("want tracked eviction, got %+v", ev)
	}
	if ev.FetchedWords != cache.WordsPerLine || ev.UsedWords != 2 {
		t.Fatalf("fetched=%d used=%d, want 16/2", ev.FetchedWords, ev.UsedWords)
	}
}

// TestWorkingSetFits: with any policy, a working set no larger than the
// cache must stop missing after the first pass.
func TestWorkingSetFits(t *testing.T) {
	for _, policy := range []string{"lru", "drrip", "grasp", "popt"} {
		t.Run(policy, func(t *testing.T) {
			c := mustCache(t, 1<<14, 4, policy) // 16 KiB: 256 lines
			lines := 64                         // well under capacity, spread over sets
			for pass := 0; pass < 3; pass++ {
				for i := 0; i < lines; i++ {
					c.Access(uint64(i*64), false, cache.HintNone, false, -1)
				}
			}
			if c.Misses != uint64(lines) {
				t.Fatalf("%s: misses = %d, want %d (compulsory only)", policy, c.Misses, lines)
			}
		})
	}
}

// TestGRASPProtectsHotLines: under thrashing, hot-hinted lines should
// survive better than unhinted ones.
func TestGRASPProtectsHotLines(t *testing.T) {
	c := mustCache(t, 2*64, 2, "grasp") // 1 set, 2 ways
	c.Access(0, false, cache.HintHot, false, -1)
	// Thrash with a stream of cold lines.
	for i := 1; i <= 8; i++ {
		c.Access(uint64(i*64), false, cache.HintNone, false, -1)
	}
	r := c.Access(0, false, cache.HintHot, false, -1)
	if !r.Hit {
		t.Fatal("GRASP failed to protect hot line under thrashing")
	}
}

func TestHelpers(t *testing.T) {
	if cache.LineAddr(130) != 128 {
		t.Fatal("LineAddr wrong")
	}
	if cache.WordIndex(130) != 0 || cache.WordIndex(132) != 1 {
		t.Fatal("WordIndex wrong")
	}
	c := mustCache(t, 4096, 4, "lru")
	if c.Name() != "test" {
		t.Fatal("name accessor wrong")
	}
	if c.MissRate() != 0 {
		t.Fatal("untouched miss rate should be 0")
	}
}

// TestPolicyDeterminism: identical access streams give identical
// hit/miss counts for every policy.
func TestPolicyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		for _, policy := range []string{"lru", "drrip", "grasp", "popt"} {
			run := func() (uint64, uint64) {
				c, _ := cache.New("q", 1<<12, 4, policy)
				x := uint64(seed)
				for i := 0; i < 500; i++ {
					x = x*6364136223846793005 + 1442695040888963407
					c.Access((x>>33)%8192*64, x&1 == 0, cache.HintNone, false, -1)
				}
				return c.Hits, c.Misses
			}
			h1, m1 := run()
			h2, m2 := run()
			if h1 != h2 || m1 != m2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
