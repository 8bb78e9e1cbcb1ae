// Package mem models the simulated physical memory: a persistent-memory
// region with two byte images.
//
// The architectural image holds the coherent view of memory — the value
// of the most recent store to each location in the global memory order.
// The persisted image holds what has actually reached the PM controller,
// i.e. the ADR persistent domain; it is the state that survives a power
// failure. The two images diverge exactly when persists are still in
// flight (or were dropped, as with PMEM-Spec's silent dirty evictions),
// and that divergence is what makes stale reads and crash-consistency
// experiments meaningful.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
)

// BlockSize is the cache-block size in bytes (Table 3: 64 B blocks).
const BlockSize = 64

// Addr is a simulated physical address.
type Addr uint64

// BlockAlign rounds a down to its cache-block base.
func BlockAlign(a Addr) Addr { return a &^ (BlockSize - 1) }

// BlockOff returns a's offset within its cache block.
func BlockOff(a Addr) int { return int(a & (BlockSize - 1)) }

// SameBlock reports whether a and b fall in the same cache block.
func SameBlock(a, b Addr) bool { return BlockAlign(a) == BlockAlign(b) }

// Image is a flat byte image of the PM region.
type Image struct {
	base Addr
	data []byte
	// [lo, hi) is the written extent: it covers every byte ever written,
	// so everything outside it is still zero. A recycled image only has
	// to clear the extent instead of its full (typically 64 MB) length,
	// and a copy only has to copy it. An image nothing was written to
	// has lo > hi (see clean), so a write widens the extent with one
	// compare per end.
	lo, hi uint64
	// free frees a large image's array (see allocImage) if the image
	// becomes unreachable unreleased; Release stops it.
	free runtime.Cleanup
}

// imagePool recycles the large backing arrays between runs, keyed by
// size. Zeroing a fresh multi-megabyte image per (design, workload) grid
// cell was ~10% of fig10 wall-clock; recycled images clear only their
// written extent. It keeps up to three arrays per P, what one crash
// sweep holds at once (a machine's two images and the sweep's scratch
// copy of PM), and frees the arrays it drops. Small images (tests)
// bypass the pool and stay on the Go heap.
var imagePool = NewFreeList[uint64, *Image](3)

const imagePoolMin = 1 << 20

// arraysFreed counts the large arrays freed so far, by the pool or by
// an unreleased image's cleanup (tests read it).
var arraysFreed atomic.Int64

// NewImage creates a zeroed image covering [base, base+size).
func NewImage(base Addr, size uint64) *Image {
	im := allocImage(size)
	im.base = base
	im.clearRange(im.lo, im.hi)
	im.clean()
	return im
}

// allocImage returns an image of size bytes whose written extent has
// NOT been cleared — NewImage zeroes it, Clone overwrites it through
// CopyFrom. A small image is a fresh Go slice. A large one owns a
// recycled array or a fresh one from newArray, and a cleanup frees the
// array if the image is dropped without Release.
func allocImage(size uint64) *Image {
	if size < imagePoolMin {
		return &Image{data: make([]byte, size)}
	}
	im, ok := imagePool.Get(size)
	if !ok {
		im = &Image{data: newArray(size)}
	}
	im.free = runtime.AddCleanup(im, freeLarge, im.data)
	return im
}

// freeLarge frees a large array no image or pool entry holds any more.
func freeLarge(d []byte) {
	arraysFreed.Add(1)
	freeArray(d)
}

// Release returns the image's backing array to the recycle pool. The
// image must not be used afterwards: its backing slice is detached, so
// later accesses panic instead of silently aliasing a recycled array.
// Release is idempotent — a second call is a no-op, never a second pool
// insertion (which would hand the same array to two future images).
func (im *Image) Release() {
	d := im.data
	if d == nil {
		return // already released
	}
	im.data = nil
	if uint64(len(d)) >= imagePoolMin {
		im.free.Stop()
		// Pool a fresh wrapper rather than im itself: the caller still
		// holds im, and a pooled object must have exactly one owner.
		if old, dropped := imagePool.Put(uint64(len(d)), &Image{data: d, lo: im.lo, hi: im.hi}); dropped {
			freeLarge(old.data)
		}
	}
}

// Base returns the first address covered by the image.
func (im *Image) Base() Addr { return im.base }

// Size returns the number of bytes covered.
func (im *Image) Size() uint64 { return uint64(len(im.data)) }

// Contains reports whether [a, a+n) lies inside the image.
func (im *Image) Contains(a Addr, n int) bool {
	if n < 0 || a < im.base {
		return false
	}
	off := uint64(a - im.base)
	return off+uint64(n) <= uint64(len(im.data))
}

func (im *Image) index(a Addr, n int) uint64 {
	if !im.Contains(a, n) {
		panic(fmt.Sprintf("mem: access [%#x,+%d) outside image [%#x,+%d)", uint64(a), n, uint64(im.base), len(im.data)))
	}
	return uint64(a - im.base)
}

// ReadU64 reads a little-endian uint64 at a.
func (im *Image) ReadU64(a Addr) uint64 {
	i := im.index(a, 8)
	return binary.LittleEndian.Uint64(im.data[i:])
}

// WriteU64 writes a little-endian uint64 at a.
func (im *Image) WriteU64(a Addr, v uint64) {
	i := im.index(a, 8)
	binary.LittleEndian.PutUint64(im.data[i:], v)
	im.dirty(i, i+8)
}

// dirty widens the written extent to cover [start, end).
func (im *Image) dirty(start, end uint64) {
	if start < im.lo {
		im.lo = start
	}
	if end > im.hi {
		im.hi = end
	}
}

// clean marks the image unwritten: an empty extent that the first
// write replaces.
func (im *Image) clean() { im.lo, im.hi = math.MaxUint64, 0 }

// clearRange zeroes [start, end), if it is not empty.
func (im *Image) clearRange(start, end uint64) {
	if start < end {
		clear(im.data[start:end])
	}
}

// Read copies len(p) bytes starting at a into p.
func (im *Image) Read(a Addr, p []byte) {
	i := im.index(a, len(p))
	copy(p, im.data[i:])
}

// Write copies p into the image starting at a.
func (im *Image) Write(a Addr, p []byte) {
	i := im.index(a, len(p))
	copy(im.data[i:], p)
	im.dirty(i, i+uint64(len(p)))
}

// ReadBlock returns a copy of the cache block containing a.
func (im *Image) ReadBlock(a Addr) [BlockSize]byte {
	var b [BlockSize]byte
	im.Read(BlockAlign(a), b[:])
	return b
}

// WriteBlock overwrites the cache block containing a.
func (im *Image) WriteBlock(a Addr, b [BlockSize]byte) {
	im.Write(BlockAlign(a), b[:])
}

// Clone returns a deep copy of the image (for crash snapshots).
func (im *Image) Clone() *Image {
	c := allocImage(uint64(len(im.data)))
	c.CopyFrom(im)
	return c
}

// CopyFrom makes im a byte-identical copy of src, which must have the
// same size. Everything outside a written extent is zero, so it copies
// only src's extent and clears only im's stale bytes outside it.
func (im *Image) CopyFrom(src *Image) {
	if len(im.data) != len(src.data) {
		panic(fmt.Sprintf("mem: copy of a %d-byte image into a %d-byte one", len(src.data), len(im.data)))
	}
	im.base = src.base
	if src.lo < src.hi {
		copy(im.data[src.lo:src.hi], src.data[src.lo:src.hi])
	}
	im.clearRange(im.lo, min(im.hi, src.lo))
	im.clearRange(max(im.lo, src.hi), im.hi)
	im.lo, im.hi = src.lo, src.hi
}

// BlockSlice returns the image's backing bytes for the cache block
// containing a, aliasing the image storage (no copy). Callers must not
// retain the slice across image writes, and must treat it as read-only:
// mutations have to go through Write/WriteU64/WriteBlock so the written
// extent used by image recycling and copying stays accurate. It exists
// for the simulator's per-access hot paths, where the block-sized value
// copies of ReadBlock/WriteBlock dominated.
func (im *Image) BlockSlice(a Addr) []byte {
	b := BlockAlign(a)
	i := im.index(b, BlockSize)
	return im.data[i : i+BlockSize : i+BlockSize]
}

// CopyBlockFrom copies the block containing a from src into im. The two
// images must cover the block.
func (im *Image) CopyBlockFrom(src *Image, a Addr) {
	copy(im.BlockSlice(a), src.BlockSlice(a))
	i := uint64(BlockAlign(a) - im.base)
	im.dirty(i, i+BlockSize)
}

// Space is the simulated PM region: an architectural image plus the
// persisted (ADR-domain) image, initially identical (both zero).
type Space struct {
	// Arch is the coherent, program-order view of memory.
	Arch *Image
	// PM is the persisted view: what survives a power failure.
	PM *Image
}

// DefaultBase is the physical base address of the simulated PM region.
const DefaultBase = Addr(0x1000_0000)

// NewSpace creates a PM region of the given size at DefaultBase.
func NewSpace(size uint64) *Space {
	return &Space{
		Arch: NewImage(DefaultBase, size),
		PM:   NewImage(DefaultBase, size),
	}
}

// Release returns both images' backing arrays to the recycle pool. The
// space (and anything aliasing its images) must not be used afterwards.
// Like Image.Release it is idempotent: a second call is a no-op.
func (s *Space) Release() {
	if s.Arch == nil && s.PM == nil {
		return // already released
	}
	s.Arch.Release()
	s.PM.Release()
	s.Arch, s.PM = nil, nil
}

// Base returns the first PM address.
func (s *Space) Base() Addr { return s.Arch.Base() }

// Size returns the PM region size in bytes.
func (s *Space) Size() uint64 { return s.Arch.Size() }

// Contains reports whether [a, a+n) is a valid PM range.
func (s *Space) Contains(a Addr, n int) bool { return s.Arch.Contains(a, n) }

// PersistBlock copies the architectural contents of a's block into the
// persisted image. Writeback-based designs (IntelX86 CLWB, HOPS/DPO
// persist-buffer drains, dirty LLC writebacks that update PM) use this:
// by the time the line reaches the controller it carries the coherent
// data.
func (s *Space) PersistBlock(a Addr) {
	s.PM.CopyBlockFrom(s.Arch, a)
}

// PersistBytes applies an individual store's payload to the persisted
// image. The PMEM-Spec persist-path uses this: each message carries the
// bytes of one store, applied in arrival order at the controller — which
// is how a late-arriving racing store can clobber a newer value (the
// store-misspeculation "missing update").
func (s *Space) PersistBytes(a Addr, p []byte) {
	s.PM.Write(a, p)
}

// Divergent reports whether the architectural and persisted contents of
// a's block differ (useful in tests and crash diagnostics).
func (s *Space) Divergent(a Addr) bool {
	return !bytes.Equal(s.Arch.BlockSlice(a), s.PM.BlockSlice(a))
}

// StaleBlock returns nil when a's block is identical in both images, or
// a fresh copy of the persisted block when they diverge — the stale data
// a speculative PM fetch delivers while persists for the block are still
// in flight. The copy is taken only on divergence, keeping the common
// (converged) fetch path allocation-free.
func (s *Space) StaleBlock(a Addr) *[BlockSize]byte {
	pm := s.PM.BlockSlice(a)
	if bytes.Equal(pm, s.Arch.BlockSlice(a)) {
		return nil
	}
	blk := new([BlockSize]byte)
	copy(blk[:], pm)
	return blk
}
