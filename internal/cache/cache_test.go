package cache

import (
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"pmemspec/internal/mem"
)

func TestCacheGeometry(t *testing.T) {
	c := New("t", 64*1024, 4) // 64KB 4-way: 256 sets
	if c.Sets() != 256 || c.Ways() != 4 {
		t.Errorf("sets=%d ways=%d, want 256, 4", c.Sets(), c.Ways())
	}
	defer func() {
		if recover() == nil {
			t.Error("bad geometry did not panic")
		}
	}()
	New("bad", 100, 3)
}

func TestCacheHitMiss(t *testing.T) {
	c := New("t", 1024, 2)
	if c.Lookup(0x100) != nil {
		t.Error("hit in empty cache")
	}
	c.Insert(0x100)
	l := c.Lookup(0x100)
	if l == nil {
		t.Fatal("miss after insert")
	}
	if l.Addr() != 0x100 {
		t.Errorf("line addr = %#x", uint64(l.Addr()))
	}
	if c.Lookup(0x140) != nil { // different block
		t.Error("false hit on neighbouring block")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestCacheSameBlockAliases(t *testing.T) {
	c := New("t", 1024, 2)
	c.Insert(0x103)
	if c.Lookup(0x13F) == nil {
		t.Error("addresses in one block must alias")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: fill a set with A and B, touch A, insert C — B (LRU)
	// must be evicted.
	c := New("t", 2*mem.BlockSize, 2) // 1 set, 2 ways
	c.Insert(0x000)                   // A
	c.Insert(0x040)                   // B
	c.Lookup(0x000)                   // touch A
	_, ev, evicted := c.Insert(0x080) // C evicts B
	if !evicted || ev.Addr != 0x040 {
		t.Fatalf("evicted %v %+v, want block 0x40", evicted, ev)
	}
	if c.Peek(0x000) == nil || c.Peek(0x080) == nil {
		t.Error("A or C missing after eviction")
	}
}

func TestCacheDirtyEvictionReported(t *testing.T) {
	c := New("t", 2*mem.BlockSize, 2)
	l, _, _ := c.Insert(0x000)
	l.MarkDirty()
	c.Insert(0x040)
	c.Lookup(0x040) // make 0x000 LRU
	_, ev, evicted := c.Insert(0x080)
	if !evicted || !ev.Dirty || ev.Addr != 0x000 {
		t.Fatalf("evicted %v %+v, want dirty block 0x0", evicted, ev)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Errorf("dirty evictions = %d", c.Stats.DirtyEvictions)
	}
}

func TestCacheReinsertRefreshes(t *testing.T) {
	c := New("t", 2*mem.BlockSize, 2)
	c.Insert(0x000)
	c.Insert(0x040)
	if _, _, evicted := c.Insert(0x000); evicted {
		t.Error("reinserting a present block must not evict")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := New("t", 1024, 2)
	l, _, _ := c.Insert(0x200)
	l.MarkDirty()
	ev, ok := c.Invalidate(0x200)
	if !ok || !ev.Dirty {
		t.Fatal("invalidate lost dirty state")
	}
	if c.Peek(0x200) != nil {
		t.Error("block still present after invalidate")
	}
	if _, ok := c.Invalidate(0x200); ok {
		t.Error("second invalidate should report absence")
	}
}

func TestCacheFlush(t *testing.T) {
	c := New("t", 1024, 2)
	c.Insert(0x100)
	c.Insert(0x200)
	c.Flush()
	if c.Peek(0x100) != nil || c.Peek(0x200) != nil {
		t.Error("blocks survive Flush")
	}
}

func TestCacheCapacityProperty(t *testing.T) {
	// Inserting any sequence never exceeds capacity, and a freshly
	// inserted block is always present immediately afterwards.
	f := func(addrs []uint16) bool {
		c := New("t", 8*mem.BlockSize, 2)
		for _, raw := range addrs {
			a := mem.Addr(raw)
			c.Insert(a)
			if c.Peek(a) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLoadLevels(t *testing.T) {
	h := NewHierarchy(2, 1024, 2, 4096, 4, 0, 1<<16)
	a := mem.Addr(0x1000)
	// Cold: memory.
	if res := h.Load(0, a); res.Level != LevelMemory {
		t.Fatalf("cold load level = %v", res.Level)
	}
	h.FillFromMemory(0, a, nil)
	// Now L1 hit.
	if res := h.Load(0, a); res.Level != LevelL1 {
		t.Errorf("second load level = %v", res.Level)
	}
	// Other core: LLC hit (block is in LLC, not in its L1).
	if res := h.Load(1, a); res.Level != LevelLLC {
		t.Errorf("cross-core load level = %v", res.Level)
	}
	// And now core 1 has it in L1 too.
	if res := h.Load(1, a); res.Level != LevelL1 {
		t.Errorf("core1 repeat load level = %v", res.Level)
	}
}

func TestHierarchyStoreInvalidatesSharers(t *testing.T) {
	h := NewHierarchy(2, 1024, 2, 4096, 4, 0, 1<<16)
	a := mem.Addr(0x2000)
	h.FillFromMemory(0, a, nil)
	h.Load(1, a) // both L1s share the block
	res := h.Store(0, a)
	if res.Level != LevelL1 {
		t.Fatalf("store level = %v", res.Level)
	}
	if h.L1(1).Peek(a) != nil {
		t.Error("core 1 L1 copy not invalidated by core 0 store")
	}
	if h.InvalidationsSent == 0 {
		t.Error("no invalidation recorded")
	}
	if !h.L1(0).Peek(a).Dirty() {
		t.Error("stored line not dirty")
	}
}

func TestHierarchyStoreMissWriteAllocate(t *testing.T) {
	h := NewHierarchy(1, 1024, 2, 4096, 4, 0, 1<<16)
	a := mem.Addr(0x3000)
	res := h.Store(0, a)
	if res.Level != LevelMemory {
		t.Fatalf("store-miss level = %v", res.Level)
	}
	h.FillFromMemory(0, a, nil)
	h.CompleteStore(0, a)
	l := h.L1(0).Peek(a)
	if l == nil || !l.Dirty() {
		t.Error("write-allocate did not leave a dirty L1 line")
	}
}

func TestHierarchyDirtyL1EvictionFoldsIntoLLC(t *testing.T) {
	// L1: 2 blocks, 1 way → same-set conflicts are easy.
	h := NewHierarchy(1, 2*mem.BlockSize, 1, 64*mem.BlockSize, 4, 0, 1<<16)
	a := mem.Addr(0x0000) // set 0
	b := mem.Addr(0x0080) // set 0 (L1 has 2 sets: bit 6 selects)
	h.FillFromMemory(0, a, nil)
	h.Store(0, a) // dirty in L1
	h.FillFromMemory(0, b, nil)
	// b displaced a from L1 (same set); LLC copy must now be dirty.
	if h.L1(0).Peek(a) != nil {
		t.Fatal("a still in L1; geometry assumption broken")
	}
	ll := h.LLC().Peek(a)
	if ll == nil || !ll.Dirty() {
		t.Error("dirtiness did not fold into inclusive LLC")
	}
}

func TestHierarchyLLCEvictionReportedAndL1Invalidated(t *testing.T) {
	// LLC: 4 blocks, 1 way, so 4 sets; same-set blocks are 4*64=256 apart.
	h := NewHierarchy(1, 16*mem.BlockSize, 2, 4*mem.BlockSize, 1, 0, 1<<16)
	a := mem.Addr(0x0000)
	b := mem.Addr(0x0100) // same LLC set as a
	h.FillFromMemory(0, a, nil)
	h.Store(0, a)
	res := h.FillFromMemory(0, b, nil)
	if !res.LLCEvicted {
		t.Fatal("no LLC eviction reported, want block a")
	}
	ev := res.LLCVictim
	if ev.Addr != a || !ev.Dirty {
		t.Errorf("evicted %+v, want dirty block a", ev)
	}
	if h.L1(0).Peek(a) != nil {
		t.Error("inclusive eviction left a stale L1 copy")
	}
	if h.Cached(a) {
		t.Error("block still reported cached after LLC eviction")
	}
}

func TestHierarchyDivergentPropagation(t *testing.T) {
	h := NewHierarchy(2, 1024, 2, 4096, 4, 0, 1<<16)
	a := mem.Addr(0x4000)
	stale := &[mem.BlockSize]byte{1, 2, 3}
	h.FillFromMemory(0, a, stale)
	if got := h.L1(0).Peek(a).Divergent(); got != stale {
		t.Error("L1 line lost divergent data")
	}
	// Another core loads it from LLC: divergence must follow.
	res := h.Load(1, a)
	if res.Level != LevelLLC || res.Line.Divergent() != stale {
		t.Error("divergent data did not propagate on LLC fill")
	}
}

func TestHierarchyCleanBlock(t *testing.T) {
	h := NewHierarchy(1, 1024, 2, 4096, 4, 0, 1<<16)
	a := mem.Addr(0x5000)
	h.FillFromMemory(0, a, nil)
	h.Store(0, a)
	h.CleanBlock(a)
	l1, llc := h.FindBlock(0, a)
	if l1 == nil || llc == nil {
		t.Fatal("CLWB-style clean must not invalidate")
	}
	if l1.Dirty() || llc.Dirty() {
		t.Error("CleanBlock left dirty bits")
	}
}

func TestHierarchyFlushAll(t *testing.T) {
	h := NewHierarchy(2, 1024, 2, 4096, 4, 0, 1<<16)
	h.FillFromMemory(0, 0x1000, nil)
	h.FillFromMemory(1, 0x2000, nil)
	h.FlushAll()
	if h.Cached(0x1000) || h.Cached(0x2000) {
		t.Error("blocks survive FlushAll")
	}
	if h.L1(0).Peek(0x1000) != nil {
		t.Error("L1 copy survives FlushAll")
	}
}

func TestHierarchyInclusionProperty(t *testing.T) {
	// Property: any block present in an L1 is present in the LLC.
	f := func(ops []uint16) bool {
		h := NewHierarchy(2, 4*mem.BlockSize, 2, 16*mem.BlockSize, 2, 0, 1<<16)
		for _, raw := range ops {
			core := int(raw>>15) & 1
			a := mem.Addr(raw&0x0FFF) &^ 63
			if raw&0x4000 != 0 {
				if h.Store(core, a).Level == LevelMemory {
					h.FillFromMemory(core, a, nil)
					h.CompleteStore(core, a)
				}
			} else {
				if h.Load(core, a).Level == LevelMemory {
					h.FillFromMemory(core, a, nil)
				}
			}
			// Check inclusion for the touched block only (cheap but
			// catches violations as they happen).
			if h.L1(core).Peek(a) != nil && h.LLC().Peek(a) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCacheRecycle drives a cache through fills, dirtying, divergent
// overrides, invalidations and evictions, then checks the two clears
// against a freshly built cache, field for field: Release plus New must
// hand back the same arrays reset to a new cache (tags, uses, lines,
// counter and Stats), and Flush must reset the same sets but keep the
// counter and Stats.
func TestCacheRecycle(t *testing.T) {
	stale := &[mem.BlockSize]byte{0xee}
	// fill probes a's block and inserts it on a miss, as the hierarchy
	// does.
	fill := func(c *Cache, a mem.Addr) *Line {
		if l := c.Lookup(a); l != nil {
			return l
		}
		l, _, _ := c.Insert(a)
		return l
	}
	cases := []struct {
		name        string
		size, ways  int
		ops         func(c *Cache)
		wantTouched int // sets filled
	}{
		{name: "fill", size: 4096, ways: 4, wantTouched: 3, ops: func(c *Cache) {
			fill(c, 0x000)
			fill(c, 0x040)
			fill(c, 0x440) // set 1 again
			fill(c, 0xfc0) // last set
		}},
		{name: "dirty-divergent", size: 4096, ways: 4, wantTouched: 2, ops: func(c *Cache) {
			fill(c, 0x080).MarkDirty()
			fill(c, 0x0c0).SetDivergent(stale)
		}},
		{name: "hits-and-misses", size: 4096, ways: 4, wantTouched: 1, ops: func(c *Cache) {
			fill(c, 0x100)
			fill(c, 0x100)
			c.Lookup(0x140) // miss, never filled
			c.Insert(0x100) // refresh in place
		}},
		{name: "invalidate", size: 4096, ways: 4, wantTouched: 2, ops: func(c *Cache) {
			fill(c, 0x200).MarkDirty()
			fill(c, 0x240)
			c.Invalidate(0x200)
		}},
		{name: "evict", size: 2 * mem.BlockSize, ways: 2, wantTouched: 1, ops: func(c *Cache) {
			fill(c, 0x000).MarkDirty()
			fill(c, 0x040)
			fill(c, 0x040)
			fill(c, 0x080).SetDivergent(stale) // evicts dirty 0x000
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nsets := tc.size / (tc.ways * mem.BlockSize)
			fresh := build("t", nsets, tc.ways)
			used := func(t *testing.T) *Cache {
				c := New("t", tc.size, tc.ways)
				tc.ops(c)
				if c.Stats == (Stats{}) || c.counter == 0 {
					t.Fatal("ops left no statistics to reset")
				}
				if got := touchedSets(c); got != tc.wantTouched {
					t.Fatalf("%d sets marked touched, want %d", got, tc.wantTouched)
				}
				return c
			}

			t.Run("release", func(t *testing.T) {
				c := used(t)
				tags := &c.tags[0]
				c.Release()
				c.Release() // idempotent: one pool entry, not two
				r := New("t", tc.size, tc.ways)
				if &r.tags[0] != tags {
					t.Fatal("New did not recycle the released cache")
				}
				if d := cacheDiff(r, fresh); d != "" {
					t.Errorf("recycled cache differs from a new one: %s", d)
				}
				if other := New("t", tc.size, tc.ways); &other.tags[0] == tags {
					t.Error("a double release handed one cache to two owners")
				}
			})
			t.Run("flush", func(t *testing.T) {
				c := used(t)
				c.Flush()
				want := *fresh
				want.counter, want.Stats = c.counter, c.Stats
				if d := cacheDiff(c, &want); d != "" {
					t.Errorf("flushed cache differs from a new one: %s", d)
				}
			})
		})
	}
}

// cacheDiff names the first field, or array slot, in which got differs
// from want; "" when they are equal.
func cacheDiff(got, want *Cache) string {
	for i := range want.lines {
		switch {
		case got.tags[i] != want.tags[i]:
			return fmt.Sprintf("tags[%d] = %#x, want %#x", i, got.tags[i], want.tags[i])
		case got.uses[i] != want.uses[i]:
			return fmt.Sprintf("uses[%d] = %d, want %d", i, got.uses[i], want.uses[i])
		case got.lines[i] != want.lines[i]:
			return fmt.Sprintf("lines[%d] = %+v, want %+v", i, got.lines[i], want.lines[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		g, w := *got, *want
		g.tags, g.uses, g.lines, w.tags, w.uses, w.lines = nil, nil, nil, nil, nil, nil
		return fmt.Sprintf("got %+v, want %+v", g, w)
	}
	return ""
}

// touchedSets counts the sets c has marked filled.
func touchedSets(c *Cache) int {
	n := 0
	for _, w := range c.touched {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestCacheReleasedPanics: a released cache has no arrays, so using it
// fails loudly instead of mutating whatever cache recycled them.
func TestCacheReleasedPanics(t *testing.T) {
	c := New("t", 1024, 2)
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("insert into a released cache did not panic")
		}
	}()
	c.Insert(0x40)
}

// TestCachePoolConcurrent cycles caches through the shared free list
// from several goroutines, as harness workers do: each takes a cache,
// checks it is empty, fills its own blocks, checks they are all present
// and releases it. A cache handed to two owners, or a line surviving a
// recycle, shows up as a foreign or missing block (and, under -race, as
// a race).
func TestCachePoolConcurrent(t *testing.T) {
	const workers, rounds, size, ways = 4, 25, 4096, 2
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c := New("t", size, ways)
				for i, tag := range c.tags {
					if tag != invalidTag || touchedSets(c) != 0 {
						errs <- fmt.Errorf("worker %d round %d: new cache holds block %#x in slot %d", w, r, tag, i)
						return
					}
				}
				own := make([]mem.Addr, 1+(w+r)%8)
				for i := range own {
					own[i] = mem.Addr((w*64 + r*8 + i) * mem.BlockSize)
					c.Insert(own[i])
				}
				for _, a := range own {
					if c.Peek(a) == nil {
						errs <- fmt.Errorf("worker %d round %d: block %#x vanished", w, r, uint64(a))
						return
					}
				}
				if n := touchedSets(c); n != len(own) {
					errs <- fmt.Errorf("worker %d round %d: %d touched sets, want %d", w, r, n, len(own))
					return
				}
				c.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
