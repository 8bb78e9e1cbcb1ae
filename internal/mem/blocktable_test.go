package mem

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"
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
			tab := NewBlockTable[uint64]("test", base, size, nil)
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
			tab := NewBlockTable[uint64]("test", base, size, nil)
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

// TestBlockTableRecycle cycles tables through a free list: after a run
// of writes and a Release, the next table over as many blocks takes the
// same array, reads zero everywhere — also past its materialized prefix,
// where it grows into the array's capacity — and, given the same writes
// as a freshly built table, matches it entry for entry.
func TestBlockTableRecycle(t *testing.T) {
	const base, size = DefaultBase, 1 << 20
	const nblocks = size / BlockSize
	cases := []struct {
		name   string
		before []uint64 // the previous owner's writes
		after  []uint64 // both tables' writes
	}{
		{name: "small/small", before: []uint64{0, 7}, after: []uint64{3}},
		{name: "large/small", before: []uint64{5, 3 * blockTableMin, nblocks - 1}, after: []uint64{1}},
		{name: "small/large", before: []uint64{2}, after: []uint64{blockTableMin, 5 * blockTableMin}},
		{name: "same", before: []uint64{9, 2 * blockTableMin}, after: []uint64{9, 2 * blockTableMin}},
		{name: "unwritten", after: []uint64{4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			free := NewFreeList[uint64, []uint64](1)
			old := NewBlockTable("test", base, size, free)
			for _, i := range c.before {
				*old.Ref(i) = i + 1
			}
			array := unsafe.SliceData(old.tab)
			old.Release()

			tab := NewBlockTable("test", base, size, free)
			if len(c.before) > 0 && unsafe.SliceData(tab.tab) != array {
				t.Fatal("the table did not take the released array")
			}
			if len(tab.tab) != 0 {
				t.Fatalf("recycled table starts with %d materialized entries, want 0", len(tab.tab))
			}
			for i := uint64(0); i < nblocks; i++ {
				if v := tab.Get(i); v != 0 {
					t.Fatalf("block %d reads %d before any write, want 0", i, v)
				}
			}
			fresh := NewBlockTable[uint64]("test", base, size, nil)
			for _, i := range c.after {
				*tab.Ref(i) = 100 + i
				*fresh.Ref(i) = 100 + i
			}
			if len(tab.tab) != len(fresh.tab) {
				t.Errorf("materialized %d entries, a fresh table %d", len(tab.tab), len(fresh.tab))
			}
			for i := uint64(0); i < nblocks; i++ {
				if got, want := tab.Get(i), fresh.Get(i); got != want {
					t.Fatalf("block %d = %d, a fresh table reads %d", i, got, want)
				}
			}
			// Growing through the whole region exposes the rest of the
			// array's capacity: it must be zero too.
			*tab.Ref(nblocks - 1) = 1
			for i := uint64(0); i < nblocks-1; i++ {
				if got, want := tab.Get(i), fresh.Get(i); got != want {
					t.Fatalf("after growing, block %d = %d, a fresh table reads %d", i, got, want)
				}
			}
		})
	}
}

// TestBlockTableReleaseTwice: a second Release is a no-op, so the array
// goes to exactly one later table, and a released table panics instead
// of reading a recycled array.
func TestBlockTableReleaseTwice(t *testing.T) {
	const base, size = DefaultBase, 1 << 20
	free := NewFreeList[uint64, []uint64](4)
	old := NewBlockTable("test", base, size, free)
	*old.Ref(3) = 1
	old.Release()
	old.Release()
	a := NewBlockTable("test", base, size, free)
	b := NewBlockTable("test", base, size, free)
	if cap(a.tab) == 0 || cap(b.tab) != 0 {
		t.Fatalf("after a double release the tables hold arrays of capacity %d and %d, want one array", cap(a.tab), cap(b.tab))
	}
	defer func() {
		if recover() == nil {
			t.Error("a released table did not panic on access")
		}
	}()
	old.Get(3)
}

// TestBlockTablePoolConcurrent cycles tables through one free list from
// several goroutines, each writing its own values over its own span: an
// array handed to two tables at once shows up as another goroutine's
// value (and races under -race).
func TestBlockTablePoolConcurrent(t *testing.T) {
	const base, size, workers, rounds = DefaultBase, 1 << 20, 4, 50
	free := NewFreeList[uint64, []uint64](1)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tab := NewBlockTable("test", base, size, free)
				n := uint64(1+(w+r)%4) * blockTableMin
				for i := uint64(0); i < n; i += 7 {
					*tab.Ref(i) = uint64(w)<<32 | i
				}
				for i := uint64(0); i < n; i++ {
					want := uint64(0)
					if i%7 == 0 {
						want = uint64(w)<<32 | i
					}
					if got := tab.Get(i); got != want {
						errs <- fmt.Errorf("worker %d round %d: block %d = %#x, want %#x", w, r, i, got, want)
						return
					}
				}
				tab.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
