package cache

import (
	"testing"

	"pmemspec/internal/mem"
)

// Table 3's hierarchy: 64 KB 4-way private L1s and a 16 MB 16-way
// shared LLC, over a 64 MB PM region.
const (
	benchL1Bytes, benchL1Ways   = 64 << 10, 4
	benchLLCBytes, benchLLCWays = 16 << 20, 16
	benchMemBytes               = 64 << 20
)

// BenchmarkHierarchy measures the cache layer's per-access entry points
// on Table 3's geometry, allocations counted. Each case sweeps a working
// set sized so every access takes the same path:
//
//   - L1Hit: one block resident in core 0's L1.
//   - LLCHit: 4× the L1's capacity, all in the LLC, so core 0's L1
//     (LRU) misses every block and the LLC serves it.
//   - MissFill: 2× the LLC's capacity, so every Load misses the
//     hierarchy and FillFromMemory installs the block, evicting the
//     LLC's least recently used line.
//   - StoreL1: a store hit on a dirty L1 line without sharers.
//   - StoreShared: two cores store to one block in turn, so each store
//     misses its L1, hits the LLC and invalidates the other core's copy.
func BenchmarkHierarchy(b *testing.B) {
	blocks := func(n int) []mem.Addr {
		as := make([]mem.Addr, n)
		for i := range as {
			as[i] = mem.DefaultBase + mem.Addr(i*mem.BlockSize)
		}
		return as
	}
	load := func(h *Hierarchy, core int, a mem.Addr) {
		if h.Load(core, a).Level == LevelMemory {
			h.FillFromMemory(core, a, nil)
		}
	}
	store := func(h *Hierarchy, core int, a mem.Addr) {
		if h.Store(core, a).Level == LevelMemory {
			h.FillFromMemory(core, a, nil)
			h.CompleteStore(core, a)
		}
	}
	sweep := func(as []mem.Addr) func(h *Hierarchy, i int) {
		return func(h *Hierarchy, i int) { load(h, 0, as[i%len(as)]) }
	}
	cases := []struct {
		name string
		warm []mem.Addr // loaded by core 0 before timing
		op   func(h *Hierarchy, i int)
	}{
		{name: "L1Hit", warm: blocks(1), op: sweep(blocks(1))},
		{name: "LLCHit", warm: blocks(4 * benchL1Bytes / mem.BlockSize), op: sweep(blocks(4 * benchL1Bytes / mem.BlockSize))},
		{name: "MissFill", warm: blocks(2 * benchLLCBytes / mem.BlockSize), op: sweep(blocks(2 * benchLLCBytes / mem.BlockSize))},
		{name: "StoreL1", warm: blocks(1), op: func(h *Hierarchy, i int) { store(h, 0, mem.DefaultBase) }},
		{name: "StoreShared", warm: blocks(1), op: func(h *Hierarchy, i int) { store(h, i&1, mem.DefaultBase) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			h := NewHierarchy(4, benchL1Bytes, benchL1Ways, benchLLCBytes, benchLLCWays, mem.DefaultBase, benchMemBytes)
			defer h.Release()
			for _, a := range c.warm {
				load(h, 0, a)
			}
			c.op(h, 0)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				c.op(h, i)
			}
		})
	}
}
