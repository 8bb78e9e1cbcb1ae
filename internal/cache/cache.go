// Package cache models the simulated cache hierarchy: per-core private
// L1 data caches and a shared, inclusive last-level cache (LLC), with
// LRU replacement, write-allocate stores, and an invalidation-based
// single-writer coherence protocol.
//
// The hierarchy is purely structural: it decides hits, misses, fills,
// invalidations and evictions, and reports which blocks leave the LLC
// (and whether they are dirty). The machine layer attaches latencies and
// decides what a dirty LLC eviction means — written back to PM
// (IntelX86), silently dropped (HOPS/DPO), or dropped with a WriteBack
// notification to the PM controller (PMEM-Spec, which needs the
// notification to arm load-misspeculation monitoring).
//
// Lines can carry a "divergent" data override: when a PMEM-Spec load
// misses all caches and fetches a stale block from PM, the stale bytes
// are cached and must be returned by subsequent hits until the line is
// overwritten or evicted. That is what makes simulated stale reads
// propagate into program state the way they would on real hardware.
package cache

import (
	"fmt"
	"math/bits"

	"pmemspec/internal/mem"
)

// Line is one cache line's metadata. LRU timestamps live in the cache's
// packed uses array, not here, so the victim scan stays on 8-byte words.
type Line struct {
	addr  mem.Addr // block-aligned tag; meaningful only if valid
	valid bool
	dirty bool
	// divergent, when non-nil, holds the line's actual contents where
	// they differ from the architectural image (stale fetch).
	divergent *[mem.BlockSize]byte
}

// Addr returns the block address held by the line.
func (l *Line) Addr() mem.Addr { return l.addr }

// Dirty reports whether the line holds unwritten modifications.
func (l *Line) Dirty() bool { return l.dirty }

// Divergent returns the line's stale-content override, or nil.
func (l *Line) Divergent() *[mem.BlockSize]byte { return l.divergent }

// SetDivergent installs (or clears) a stale-content override.
func (l *Line) SetDivergent(d *[mem.BlockSize]byte) { l.divergent = d }

// MarkDirty marks the line modified.
func (l *Line) MarkDirty() { l.dirty = true }

// MarkClean clears the dirty bit (e.g. after a CLWB writeback).
func (l *Line) MarkClean() { l.dirty = false }

// Evicted describes a line that left a cache.
type Evicted struct {
	Addr      mem.Addr
	Dirty     bool
	Divergent *[mem.BlockSize]byte
}

// Stats counts cache activity.
type Stats struct {
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// Cache is one set-associative cache with LRU replacement.
//
// Tags are kept in a packed parallel array: the hit scan — the hottest
// loop in the whole simulator (a 16-way LLC probe touches every way) —
// then walks 8-byte words instead of 40-byte Line structs. A slot's tag
// is its line's block address when valid and invalidTag otherwise; block
// addresses are 64-byte aligned, so invalidTag (all ones) can never
// collide with one.
type Cache struct {
	name     string
	tags     []uint64
	uses     []uint64 // packed per-way LRU timestamps (parallel to tags)
	lines    []Line
	ways     int
	setMask  uint64
	setShift uint
	counter  uint64
	// touched has one bit per set, set when Insert first fills the set
	// after the cache was built or cleared. Only those sets can hold
	// state, so a clear (Flush, or New recycling a released cache)
	// resets just them: its cost tracks what a run filled, not the
	// geometry. Hits never touch it.
	touched []uint64

	// Stats is the cache's activity counters.
	Stats Stats
}

const invalidTag = ^uint64(0)

// geometry keys the recycle pool: caches of equal geometry have
// interchangeable arrays.
type geometry struct{ sets, ways int }

// cachePool recycles released caches' arrays. A model-checker schedule
// fills a few thousand of a 16 MB LLC's 262,144 lines, so allocating and
// initializing its 10.5 MB of arrays afresh dominated the schedule's
// set-up; a recycled cache clears only the sets it filled. It keeps up
// to one Table 3 hierarchy (an LLC and eight L1s) per P.
var cachePool = mem.NewFreeList[geometry, *Cache](9)

// New creates a cache of sizeBytes capacity and the given associativity.
// sizeBytes must be a multiple of ways×BlockSize with a power-of-two set
// count. It recycles a released cache of the same geometry when the pool
// holds one; the result is indistinguishable from a freshly built cache.
func New(name string, sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 || sizeBytes%(ways*mem.BlockSize) != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d bytes / %d ways", sizeBytes, ways))
	}
	nsets := sizeBytes / (ways * mem.BlockSize)
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nsets))
	}
	if c, ok := cachePool.Get(geometry{nsets, ways}); ok {
		c.name = name
		c.clearTouched()
		return c
	}
	return build(name, nsets, ways)
}

// build allocates an empty cache of nsets sets and the given ways.
func build(name string, nsets, ways int) *Cache {
	c := &Cache{
		name:     name,
		tags:     make([]uint64, nsets*ways),
		uses:     make([]uint64, nsets*ways),
		lines:    make([]Line, nsets*ways),
		ways:     ways,
		setMask:  uint64(nsets - 1),
		setShift: 6, // log2(BlockSize)
		touched:  make([]uint64, (nsets+63)/64),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Release returns the cache's arrays to the recycle pool for the next
// New of its geometry. The cache must not be used afterwards: its arrays
// are detached, so later accesses panic instead of silently aliasing a
// recycled cache. Release is idempotent — a second call is a no-op,
// never a second pool insertion.
func (c *Cache) Release() {
	if c.tags == nil {
		return // already released
	}
	// Pool a fresh wrapper rather than c itself: the caller still holds
	// c, and a pooled object must have exactly one owner. The wrapper's
	// counter and Stats start at zero, as a new cache's do.
	r := &Cache{
		tags:     c.tags,
		uses:     c.uses,
		lines:    c.lines,
		ways:     c.ways,
		setMask:  c.setMask,
		setShift: c.setShift,
		touched:  c.touched,
	}
	c.tags, c.uses, c.lines, c.touched = nil, nil, nil, nil
	cachePool.Put(geometry{r.Sets(), r.ways}, r)
}

// Sets returns the number of sets (used by the synthetic conflict-evict
// workload to build same-set address sequences).
func (c *Cache) Sets() int { return len(c.lines) / c.ways }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// setBase returns the index of a's set's first way.
func (c *Cache) setBase(a mem.Addr) uint64 {
	return (uint64(a) >> c.setShift & c.setMask) * uint64(c.ways)
}

// Lookup returns the line holding a's block and refreshes its LRU
// position, or nil on miss. It updates hit/miss statistics.
func (c *Cache) Lookup(a mem.Addr) *Line {
	blk := mem.BlockAlign(a)
	base := c.setBase(blk)
	for i, t := range c.tags[base : base+uint64(c.ways)] {
		if t == uint64(blk) {
			c.counter++
			c.uses[base+uint64(i)] = c.counter
			c.Stats.Hits++
			return &c.lines[base+uint64(i)]
		}
	}
	c.Stats.Misses++
	return nil
}

// Peek returns the line holding a's block without touching LRU or stats.
func (c *Cache) Peek(a mem.Addr) *Line {
	blk := mem.BlockAlign(a)
	base := c.setBase(blk)
	for i, t := range c.tags[base : base+uint64(c.ways)] {
		if t == uint64(blk) {
			return &c.lines[base+uint64(i)]
		}
	}
	return nil
}

// Insert fills a's block into the cache, returning the filled line and,
// if a valid line had to be displaced, its description (evicted reports
// whether ev is meaningful — the description is returned by value so the
// per-access hot path allocates nothing). Inserting an already-present
// block refreshes it in place (no eviction).
func (c *Cache) Insert(a mem.Addr) (line *Line, ev Evicted, evicted bool) {
	blk := mem.BlockAlign(a)
	set := uint64(blk) >> c.setShift & c.setMask
	base := set * uint64(c.ways)
	invalid, lruIdx := -1, -1
	var lruUse uint64
	for i, t := range c.tags[base : base+uint64(c.ways)] {
		if t == uint64(blk) {
			c.counter++
			c.uses[base+uint64(i)] = c.counter
			return &c.lines[base+uint64(i)], Evicted{}, false
		}
		if t == invalidTag {
			if invalid < 0 {
				invalid = int(base) + i
			}
			continue
		}
		if u := c.uses[base+uint64(i)]; lruIdx < 0 || u < lruUse {
			lruIdx = int(base) + i
			lruUse = u
		}
	}
	// Miss: the set now holds state a clear must reset.
	c.touched[set>>6] |= 1 << (set & 63)
	victim := invalid
	if victim < 0 {
		victim = lruIdx
	}
	v := &c.lines[victim]
	if v.valid {
		ev = Evicted{Addr: v.addr, Dirty: v.dirty, Divergent: v.divergent}
		evicted = true
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.DirtyEvictions++
		}
	}
	c.counter++
	*v = Line{addr: blk, valid: true}
	c.tags[victim] = uint64(blk)
	c.uses[victim] = c.counter
	return v, ev, evicted
}

// Invalidate removes a's block if present, returning its description by
// value (ok reports presence).
func (c *Cache) Invalidate(a mem.Addr) (ev Evicted, ok bool) {
	blk := mem.BlockAlign(a)
	base := c.setBase(blk)
	for i, t := range c.tags[base : base+uint64(c.ways)] {
		if t == uint64(blk) {
			l := &c.lines[base+uint64(i)]
			ev = Evicted{Addr: l.addr, Dirty: l.dirty, Divergent: l.divergent}
			*l = Line{}
			c.tags[base+uint64(i)] = invalidTag
			return ev, true
		}
	}
	return Evicted{}, false
}

// Flush clears the entire cache without reporting evictions (used to
// model the volatile state loss at a crash). It keeps the statistics.
func (c *Cache) Flush() { c.clearTouched() }

// clearTouched empties every set filled since the last clear — tags
// invalid, uses and lines zero — which leaves every set as New builds
// it.
func (c *Cache) clearTouched() {
	w := uint64(c.ways)
	for i, word := range c.touched {
		for word != 0 {
			set := uint64(i)<<6 + uint64(bits.TrailingZeros64(word))
			word &= word - 1
			base := set * w
			for j := base; j < base+w; j++ {
				c.tags[j] = invalidTag
			}
			clear(c.uses[base : base+w])
			clear(c.lines[base : base+w])
		}
	}
	clear(c.touched)
}
