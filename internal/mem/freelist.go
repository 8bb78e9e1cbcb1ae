package mem

import (
	"runtime"
	"slices"
	"sync"
)

// FreeList recycles large run-scoped buffers between runs: the PM
// images here, the caches in package cache and the components' block
// tables (BlockTable). Values are keyed by their size or geometry and a
// Get returns only a value of its key.
//
// It is a free list, most recently released last, not a sync.Pool: a
// sync.Pool empties itself over garbage collections and keeps per-P
// slots that other Ps cannot take from, so how many runs had to build a
// fresh buffer varied with GC and scheduler timing. A FreeList keeps a
// released value until a Get of its key takes it, newest first. It holds
// at most perP values per P (GOMAXPROCS, the harness's default worker
// count); a Put into a full list first drops the least recently released
// value. It is safe for concurrent use.
type FreeList[K comparable, V any] struct {
	mu   sync.Mutex
	perP int
	free []freeEntry[K, V]
}

type freeEntry[K comparable, V any] struct {
	key K
	v   V
}

// NewFreeList returns an empty free list holding up to perP values per P.
func NewFreeList[K comparable, V any](perP int) *FreeList[K, V] {
	return &FreeList[K, V]{perP: perP}
}

// Get removes and returns the most recently released value of key; ok is
// false when the list holds none.
func (f *FreeList[K, V]) Get(key K) (v V, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := len(f.free) - 1; i >= 0; i-- {
		if f.free[i].key == key {
			v = f.free[i].v
			f.free = slices.Delete(f.free, i, i+1)
			return v, true
		}
	}
	return v, false
}

// limit is how many values the list holds at most.
func (f *FreeList[K, V]) limit() int { return f.perP * runtime.GOMAXPROCS(0) }

// Put releases v under key. The caller must not use v afterwards: the
// next Get of key hands it to a new owner. When the list is full, Put
// first drops its least recently released value and returns it with ok
// true, so that the caller can free what the garbage collector does not.
func (f *FreeList[K, V]) Put(key K, v V) (dropped V, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.free) >= f.limit() {
		dropped, ok = f.free[0].v, true
		f.free = slices.Delete(f.free, 0, 1)
	}
	f.free = append(f.free, freeEntry[K, V]{key, v})
	return dropped, ok
}
