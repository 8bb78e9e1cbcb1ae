package mem

import (
	"fmt"
	"strings"
	"testing"
)

// TestBlockTable drives a table over a 1 MiB region (16384 blocks)
// through writes, an optional Clear and reads, against a map model:
// every entry reads back what was last written to it, or zero.
func TestBlockTable(t *testing.T) {
	const base, size = DefaultBase, 1 << 20
	const nblocks = size / BlockSize
	blk := func(i uint64) Addr { return base + Addr(i*BlockSize) }
	cases := []struct {
		name    string
		writes  []uint64 // block indices, each written with its index + 1
		clear   bool     // Clear after the writes
		reads   []uint64
		wantLen int // materialized prefix after the writes
	}{
		{name: "empty reads zero", reads: []uint64{0, 5000, nblocks - 1}},
		{name: "read past prefix is zero", writes: []uint64{1},
			reads: []uint64{0, 1, blockTableMin, nblocks - 1}, wantLen: blockTableMin},
		{name: "growth keeps earlier entries", writes: []uint64{0, 10, blockTableMin, 3 * blockTableMin},
			reads: []uint64{0, 10, 11, blockTableMin, 3 * blockTableMin, 3*blockTableMin + 1}, wantLen: 4 * blockTableMin},
		{name: "growth stops at the region end", writes: []uint64{5, nblocks - 1},
			reads: []uint64{5, nblocks - 2, nblocks - 1}, wantLen: nblocks},
		{name: "clear zeroes", writes: []uint64{3, 2 * blockTableMin}, clear: true,
			reads: []uint64{3, 2 * blockTableMin}, wantLen: 2*blockTableMin + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tab := NewBlockTable[uint64]("test", base, size)
			model := map[uint64]uint64{}
			for _, i := range c.writes {
				*tab.Ref(tab.Block(blk(i) + 3)) = i + 1 // any address in the block
				model[i] = i + 1
			}
			if len(tab.tab) != c.wantLen {
				t.Errorf("materialized %d entries, want %d", len(tab.tab), c.wantLen)
			}
			if c.clear {
				tab.Clear()
				clear(model)
			}
			for _, i := range c.reads {
				if got := tab.Get(tab.Block(blk(i))); got != model[i] {
					t.Errorf("block %d = %d, want %d", i, got, model[i])
				}
			}
		})
	}
}

// TestBlockTableOutOfRegion: an index past the region panics through
// both Get and Ref, naming the table, the address and the region.
func TestBlockTableOutOfRegion(t *testing.T) {
	const base, size = DefaultBase, 1 << 20
	region := fmt.Sprintf("outside region [%#x,+%d blocks)", uint64(base), size/BlockSize)
	cases := []struct {
		name string
		a    Addr
		ref  bool
	}{
		{"get/past-end", base + size, false},
		{"ref/past-end", base + size, true},
		{"get/below-base", base - BlockSize, false},
		{"ref/below-base", base - BlockSize, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tab := NewBlockTable[uint64]("test", base, size)
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("test: address %#x %s", uint64(c.a), region)
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q, want %q", msg, want)
				}
			}()
			if c.ref {
				tab.Ref(tab.Block(c.a))
			} else {
				tab.Get(tab.Block(c.a))
			}
		})
	}
}
