package mem

import "fmt"

// BlockTable is a per-block table over a PM region [base, base+size): one
// T per cache block, indexed by block number. Simulator components keep
// their per-block state here (cache sharer bitmaps, WPQ coalescing
// entries, HOPS pending persists) so a lookup is an index, not a map
// probe.
//
// Only the prefix of blocks written so far is materialized, grown
// geometrically; entries past it read as zero. A run that touches the
// first few hundred kilobytes of a 64 MB region therefore builds a table
// over those blocks only. Indices past the region panic.
//
// A table built with a free list recycles its array: NewBlockTable takes
// a released array of a table over as many blocks, clears the prefix its
// last owner materialized and grows into the rest without allocating.
// Everything past a materialized prefix is zero, so that clear is all a
// recycled table needs.
type BlockTable[T any] struct {
	name    string
	base    Addr
	nblocks uint64
	tab     []T // the materialized prefix; tab[len:cap] is zero
	free    *FreeList[uint64, []T]
}

// blockTableMin is the first materialized length: small enough that a
// tiny run stays cheap, large enough that the first doublings are rare.
const blockTableMin = 1024

// NewBlockTable returns an empty table covering [base, base+size). name
// prefixes the out-of-region panic message. free, when non-nil, is the
// free list the table's array comes from and Release returns it to,
// keyed by the table's block count.
func NewBlockTable[T any](name string, base Addr, size uint64, free *FreeList[uint64, []T]) BlockTable[T] {
	t := BlockTable[T]{name: name, base: base, nblocks: (size + BlockSize - 1) / BlockSize, free: free}
	if free != nil {
		if tab, ok := free.Get(t.nblocks); ok {
			clear(tab)
			t.tab = tab[:0]
		}
	}
	return t
}

// Release returns the table's array to its free list, if it has one,
// for the next table over as many blocks. The table must not be used
// afterwards: it then covers no blocks, so every access panics instead
// of silently aliasing a recycled array. Release is idempotent — a
// second call is a no-op, never a second insertion (which would hand one
// array to two tables).
func (t *BlockTable[T]) Release() {
	tab, n := t.tab, t.nblocks
	t.tab, t.nblocks = nil, 0
	if t.free != nil && cap(tab) > 0 {
		t.free.Put(n, tab)
	}
}

// Block returns the index of a's cache block. It does not check the
// region: Get and Ref do, on their slow path. An address below the base
// wraps to an index past the region.
func (t *BlockTable[T]) Block(a Addr) uint64 { return uint64(a-t.base) / BlockSize }

// Get returns entry i, or the zero T if i lies past the materialized
// prefix.
func (t *BlockTable[T]) Get(i uint64) T {
	if i < uint64(len(t.tab)) {
		return t.tab[i]
	}
	return t.unwritten(i)
}

// Ref returns a pointer to entry i for writing, first materializing the
// prefix through i. The pointer is valid until the next Ref of an index
// past the prefix.
func (t *BlockTable[T]) Ref(i uint64) *T {
	if i < uint64(len(t.tab)) {
		return &t.tab[i]
	}
	return t.grow(i)
}

// Clear zeroes every entry. Only the materialized prefix holds non-zero
// entries, so only it is cleared.
func (t *BlockTable[T]) Clear() { clear(t.tab) }

// The slow paths stay out of line so Get and Ref inline into the
// per-access callers as one length compare and an index.

// unwritten returns the entry for an index past the materialized prefix:
// zero inside the region.
//
//go:noinline
func (t *BlockTable[T]) unwritten(i uint64) T {
	t.check(i)
	var zero T
	return zero
}

// grow materializes the prefix through i, at least doubling it, and
// returns entry i. A recycled array's capacity is already zero, so the
// prefix grows into it without allocating.
//
//go:noinline
func (t *BlockTable[T]) grow(i uint64) *T {
	t.check(i)
	n := min(max(2*uint64(len(t.tab)), i+1, blockTableMin), t.nblocks)
	if n <= uint64(cap(t.tab)) {
		t.tab = t.tab[:n]
	} else {
		tab := make([]T, n)
		copy(tab, t.tab)
		t.tab = tab
	}
	return &t.tab[i]
}

// check panics if i lies outside the region, naming the block's address
// and the region.
func (t *BlockTable[T]) check(i uint64) {
	if i >= t.nblocks {
		panic(fmt.Sprintf("%s: address %#x outside region [%#x,+%d blocks)",
			t.name, uint64(t.base)+i*BlockSize, uint64(t.base), t.nblocks))
	}
}
