package sim

// TLB is a per-core translation lookaside buffer. Fig 5 places the
// TDGraph engine behind its core's L2 TLB — engine prefetches and core
// accesses both translate through it, and a miss costs a page-walk
// penalty (charged like a memory stall for demand accesses, absorbed by
// the engine pipeline for prefetches).
//
// The model is a set-associative TLB over 4 KiB pages with LRU
// replacement, sized like a Skylake L2 STLB (1536 entries, 12-way).
type TLB struct {
	sets    [][]tlbEntry
	ways    int
	setMask uint64
	tick    uint64

	Hits   uint64
	Misses uint64
}

type tlbEntry struct {
	page  uint64
	valid bool
	ts    uint64
}

const (
	pageBits = 12 // 4 KiB pages
	// PageWalkLatency is the cycles charged for a TLB miss (a cached
	// page walk on Skylake-class cores is on the order of tens of
	// cycles).
	PageWalkLatency = 35
)

// NewTLB builds a TLB with the given entry count and associativity
// (entries must be a power-of-two multiple of ways).
func NewTLB(entries, ways int) *TLB {
	numSets := entries / ways
	if numSets < 1 {
		numSets = 1
	}
	t := &TLB{
		sets:    make([][]tlbEntry, numSets),
		ways:    ways,
		setMask: uint64(numSets - 1),
	}
	for i := range t.sets {
		t.sets[i] = make([]tlbEntry, ways)
	}
	return t
}

// Lookup translates the page containing addr, returning whether it hit.
// Misses install the translation.
func (t *TLB) Lookup(addr uint64) bool {
	t.tick++
	page := addr >> pageBits
	set := t.sets[page&t.setMask]
	for i := range set {
		if set[i].valid && set[i].page == page {
			set[i].ts = t.tick
			t.Hits++
			return true
		}
	}
	t.Misses++
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].ts < oldest {
			oldest = set[i].ts
			victim = i
		}
	}
	set[victim] = tlbEntry{page: page, valid: true, ts: t.tick}
	return false
}

// MissRate returns misses/(hits+misses).
func (t *TLB) MissRate() float64 {
	total := t.Hits + t.Misses
	if total == 0 {
		return 0
	}
	return float64(t.Misses) / float64(total)
}
