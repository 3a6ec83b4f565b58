package sim

import (
	"math/bits"

	"github.com/tdgraph/tdgraph/internal/sim/cache"
)

const (
	lineSizeU    = uint64(cache.LineSize)
	lineMask     = lineSizeU - 1
	wordsPerLine = uint64(cache.WordsPerLine)
)

// This file holds the region-sharded replacements for what used to be two
// global hash maps on the machine's hottest path: the coherence directory
// and the state-usefulness table. Both are consulted on every line access,
// so they are now dense arrays sized from the registered Regions (one
// shard per MarkCoherent / TrackUseful call) and indexed by line offset —
// a bounds check plus a shift instead of a hash probe.

// dirShard is the coherence directory of one MarkCoherent region: one
// presence bitmask of sharer cores per line. mask==0 means "no private
// copy", which is exactly the state the old map encoded by deleting the
// entry.
type dirShard struct {
	region Region
	base   uint64 // line-aligned index origin
	mask   []uint64
}

func newDirShard(r Region) dirShard {
	base := r.Base &^ lineMask
	last := (r.Base + r.Size - 1) &^ lineMask
	return dirShard{
		region: r,
		base:   base,
		mask:   make([]uint64, (last-base)/lineSizeU+1),
	}
}

// dirEntry returns the directory slot for the line, or nil when the line
// is outside every coherent region.
func (m *Machine) dirEntry(la uint64) *uint64 {
	for i := range m.dirShards {
		s := &m.dirShards[i]
		if s.region.Contains(la) {
			return &s.mask[(la-s.base)/lineSizeU]
		}
	}
	return nil
}

// useShard tracks per-word usefulness of one TrackUseful region: for each
// line fetched from DRAM while tracked, which of its 16 state words were
// touched while resident (DRAM fetch → LLC eviction). present mirrors the
// old map's membership; used mirrors its value.
type useShard struct {
	region  Region
	base    uint64
	present []bool
	used    []uint16
}

func newUseShard(r Region) useShard {
	base := r.Base &^ lineMask
	last := (r.Base + r.Size - 1) &^ lineMask
	n := (last-base)/lineSizeU + 1
	return useShard{
		region:  r,
		base:    base,
		present: make([]bool, n),
		used:    make([]uint16, n),
	}
}

// useEntry locates the usefulness shard and slot for the line; ok is
// false when the line is untracked.
func (m *Machine) useEntry(la uint64) (s *useShard, idx uint64, ok bool) {
	for i := range m.useShards {
		sh := &m.useShards[i]
		if sh.region.Contains(la) {
			return sh, (la - sh.base) / lineSizeU, true
		}
	}
	return nil, 0, false
}

// useInsert registers a freshly DRAM-fetched tracked line (old map's
// `useTable[la] = 0`, keeping an existing entry's accumulated words).
func (m *Machine) useInsert(la uint64) {
	if s, i, ok := m.useEntry(la); ok && !s.present[i] {
		s.present[i] = true
		s.used[i] = 0
	}
}

// useMark records one word touch on a resident tracked line.
func (m *Machine) useMark(la uint64, wordIdx int) {
	if s, i, ok := m.useEntry(la); ok && s.present[i] {
		s.used[i] |= 1 << uint(wordIdx)
	}
}

// useEvict folds and clears the line's usefulness record on LLC eviction.
func (m *Machine) useEvict(la uint64) {
	if s, i, ok := m.useEntry(la); ok && s.present[i] {
		m.stateFetched += wordsPerLine
		m.stateUsed += uint64(bits.OnesCount16(s.used[i]))
		s.present[i] = false
		s.used[i] = 0
	}
}

// useFlush folds every still-resident tracked line (end of run) and
// clears the shards. Shards are walked in registration order and lines in
// address order, so totals are reproducible (they were order-independent
// sums under the old map too).
func (m *Machine) useFlush() {
	for i := range m.useShards {
		s := &m.useShards[i]
		for j := range s.present {
			if !s.present[j] {
				continue
			}
			m.stateFetched += wordsPerLine
			m.stateUsed += uint64(bits.OnesCount16(s.used[j]))
			s.present[j] = false
			s.used[j] = 0
		}
	}
}
