// Package cache implements the set-associative caches of the simulated
// memory hierarchy with pluggable replacement policies (LRU, DRRIP, GRASP,
// and a P-OPT approximation), per-line dirty tracking for writeback
// accounting, and per-word use tracking so the harness can measure the
// paper's "useful fetched vertex state" ratio (Fig 3c / Fig 12) directly
// instead of asserting it.
package cache

import (
	"fmt"
	"math/bits"
)

// LineSize is the cache line size in bytes (Table 1: 64 B lines).
const LineSize = 64

// WordSize is the vertex-state element size (§2.2: 4-byte states), the
// granularity of usefulness tracking.
const WordSize = 4

// WordsPerLine is the number of state words in one line.
const WordsPerLine = LineSize / WordSize

// Hint classifies an access for hint-aware policies. GRASP protects
// HintHot lines (the coalesced hot-vertex states) against thrashing.
type Hint uint8

const (
	HintNone Hint = iota
	HintHot
)

// Line is one cache line's metadata.
type Line struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Hot   bool
	// rrpv is the re-reference prediction value for RRIP-family
	// policies; ts is the LRU timestamp.
	rrpv uint8
	ts   uint64
	// FetchMask/UsedMask track, for lines inside a tracked address
	// range, which words were brought in and which were actually read
	// or written while resident.
	FetchMask uint16
	UsedMask  uint16
	Tracked   bool
}

// Eviction describes a line pushed out by an insertion.
type Eviction struct {
	LineAddr uint64
	Dirty    bool
	Tracked  bool
	// FetchedWords/UsedWords summarise the usefulness masks at the
	// moment of eviction.
	FetchedWords int
	UsedWords    int
}

// Cache is one set-associative cache level.
type Cache struct {
	name     string
	sets     []set
	ways     int
	setMask  uint64
	setShift uint
	policy   policy
	tick     uint64

	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

type set struct {
	lines []Line
	// sd is the set-dueling role for DRRIP: 0 follower, 1 SRRIP leader,
	// 2 BRRIP leader.
	sd uint8
}

// New creates a cache of sizeBytes with the given associativity and
// replacement policy ("lru", "drrip", "grasp", "popt"). Size must be a
// power-of-two multiple of ways*LineSize.
func New(name string, sizeBytes, ways int, policyName string) (*Cache, error) {
	if sizeBytes <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache %s: non-positive geometry", name)
	}
	numLines := sizeBytes / LineSize
	if numLines%ways != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by %d ways", name, numLines, ways)
	}
	numSets := numLines / ways
	if numSets&(numSets-1) != 0 {
		return nil, fmt.Errorf("cache %s: %d sets not a power of two", name, numSets)
	}
	p, err := newPolicy(policyName)
	if err != nil {
		return nil, fmt.Errorf("cache %s: %w", name, err)
	}
	c := &Cache{
		name:     name,
		sets:     make([]set, numSets),
		ways:     ways,
		setMask:  uint64(numSets - 1),
		setShift: uint(bits.TrailingZeros(uint(LineSize))),
		policy:   p,
	}
	for i := range c.sets {
		c.sets[i].lines = make([]Line, ways)
		// DRRIP set dueling: dedicate a sparse sample of sets to each
		// leader policy.
		switch i % 64 {
		case 0:
			c.sets[i].sd = 1
		case 32:
			c.sets[i].sd = 2
		}
	}
	return c, nil
}

// MustNew is New that panics on configuration errors; used for fixed
// machine configurations validated elsewhere.
func MustNew(name string, sizeBytes, ways int, policyName string) *Cache {
	c, err := New(name, sizeBytes, ways, policyName)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// LineAddr maps a byte address to its line-aligned address.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineSize-1) }

// WordIndex returns the word slot of addr within its line.
func WordIndex(addr uint64) int { return int(addr % LineSize / WordSize) }

func (c *Cache) setIndex(lineAddr uint64) uint64 {
	return (lineAddr >> c.setShift) & c.setMask
}

// AccessResult reports the outcome of one access.
type AccessResult struct {
	Hit     bool
	Evicted *Eviction
}

// Access performs a read or write of one word within the line. On a miss
// the line is inserted and the victim, if any, is reported. track marks
// the line for word-usefulness accounting; wordIdx is the word touched.
func (c *Cache) Access(lineAddr uint64, write bool, hint Hint, track bool, wordIdx int) AccessResult {
	c.tick++
	s := &c.sets[c.setIndex(lineAddr)]
	for i := range s.lines {
		ln := &s.lines[i]
		if ln.Valid && ln.Tag == lineAddr {
			c.Hits++
			if write {
				ln.Dirty = true
			}
			if ln.Tracked && wordIdx >= 0 {
				ln.UsedMask |= 1 << uint(wordIdx)
			}
			c.policy.onHit(s, i)
			ln.ts = c.tick
			return AccessResult{Hit: true}
		}
	}
	c.Misses++
	victim := c.policy.victim(s)
	ln := &s.lines[victim]
	var ev *Eviction
	if ln.Valid {
		ev = &Eviction{
			LineAddr:     ln.Tag,
			Dirty:        ln.Dirty,
			Tracked:      ln.Tracked,
			FetchedWords: bits.OnesCount16(ln.FetchMask),
			UsedWords:    bits.OnesCount16(ln.UsedMask),
		}
		if ln.Dirty {
			c.Writebacks++
		}
	}
	*ln = Line{Tag: lineAddr, Valid: true, Dirty: write, Hot: hint == HintHot, Tracked: track}
	if track {
		ln.FetchMask = 0xFFFF // whole line fetched
		if wordIdx >= 0 {
			ln.UsedMask = 1 << uint(wordIdx)
		}
	}
	c.policy.onInsert(s, victim, hint)
	ln.ts = c.tick
	return AccessResult{Hit: false, Evicted: ev}
}

// SetDirty marks the line dirty if present, without touching hit/miss
// counters or replacement state. The machine uses it to propagate a dirty
// private-cache eviction into the inclusive LLC copy. It reports whether
// the line was found.
func (c *Cache) SetDirty(lineAddr uint64) bool {
	s := &c.sets[c.setIndex(lineAddr)]
	for i := range s.lines {
		if s.lines[i].Valid && s.lines[i].Tag == lineAddr {
			s.lines[i].Dirty = true
			return true
		}
	}
	return false
}

// Invalidate drops the line if present, returning whether it was dirty
// (the coherence layer counts the resulting writeback traffic).
func (c *Cache) Invalidate(lineAddr uint64) (present, dirty bool) {
	s := &c.sets[c.setIndex(lineAddr)]
	for i := range s.lines {
		ln := &s.lines[i]
		if ln.Valid && ln.Tag == lineAddr {
			present, dirty = true, ln.Dirty
			ln.Valid = false
			return
		}
	}
	return false, false
}

// MissRate returns misses/(hits+misses), or 0 for an untouched cache.
func (c *Cache) MissRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Misses) / float64(t)
}
