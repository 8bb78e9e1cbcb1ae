package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBlockUtilities(t *testing.T) {
	cases := []struct {
		a       Addr
		aligned Addr
		off     int
	}{
		{0, 0, 0}, {1, 0, 1}, {63, 0, 63}, {64, 64, 0}, {65, 64, 1},
		{0x10000037, 0x10000000, 0x37},
	}
	for _, c := range cases {
		if got := BlockAlign(c.a); got != c.aligned {
			t.Errorf("BlockAlign(%#x) = %#x, want %#x", uint64(c.a), uint64(got), uint64(c.aligned))
		}
		if got := BlockOff(c.a); got != c.off {
			t.Errorf("BlockOff(%#x) = %d, want %d", uint64(c.a), got, c.off)
		}
	}
	if !SameBlock(100, 127) || SameBlock(127, 128) {
		t.Error("SameBlock misclassified")
	}
}

func TestBlockAlignProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw)
		al := BlockAlign(a)
		return al <= a && a-al < BlockSize && BlockOff(al) == 0 &&
			al+Addr(BlockOff(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImageReadWrite(t *testing.T) {
	im := NewImage(0x1000, 4096)
	im.WriteU64(0x1000, 0xdeadbeefcafebabe)
	if got := im.ReadU64(0x1000); got != 0xdeadbeefcafebabe {
		t.Errorf("ReadU64 = %#x", got)
	}
	// Little-endian layout.
	var b [8]byte
	im.Read(0x1000, b[:])
	if b[0] != 0xbe || b[7] != 0xde {
		t.Errorf("unexpected byte order: % x", b)
	}
	// Bulk read/write round-trip.
	src := []byte("persistent memory speculation")
	im.Write(0x1100, src)
	dst := make([]byte, len(src))
	im.Read(0x1100, dst)
	if string(dst) != string(src) {
		t.Errorf("bulk round-trip = %q", dst)
	}
}

func TestImageU64RoundTripProperty(t *testing.T) {
	im := NewImage(0, 1<<16)
	f := func(off uint16, v uint64) bool {
		a := Addr(off) &^ 7 // keep 8-byte aligned and in range
		if !im.Contains(a, 8) {
			return true
		}
		im.WriteU64(a, v)
		return im.ReadU64(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestImageBounds(t *testing.T) {
	im := NewImage(0x1000, 128)
	if im.Contains(0xFFF, 1) {
		t.Error("Contains below base")
	}
	if im.Contains(0x1000, 129) {
		t.Error("Contains past end")
	}
	if !im.Contains(0x1000+127, 1) {
		t.Error("last byte should be contained")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	im.ReadU64(0x1000 + 124)
}

func TestImageBlockOps(t *testing.T) {
	im := NewImage(0, 1024)
	var blk [BlockSize]byte
	for i := range blk {
		blk[i] = byte(i)
	}
	im.WriteBlock(130, blk)  // block base 128
	got := im.ReadBlock(190) // same block
	if got != blk {
		t.Error("block round-trip mismatch")
	}
	if im.ReadU64(128) == 0 {
		t.Error("block write did not land at block base")
	}
}

// pattern returns n bytes derived from tag, none of them zero, so a
// cleared byte shows.
func pattern(n uint64, tag byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = tag + byte(i*7) | 1
	}
	return p
}

// fillImage writes pattern(n, tag) at the image base, leaving a written
// extent of exactly [0, n).
func fillImage(im *Image, n uint64, tag byte) { im.Write(im.Base(), pattern(n, tag)) }

// TestImageClone covers both copy paths, Clone and the in-place
// CopyFrom, into fresh and into recycled destinations. A recycled array
// keeps its old written prefix, shorter than, equal to or longer than
// the source's; the copy must clear whatever of it the source does not
// overwrite. Every byte up to the larger prefix plus one block must
// match the source.
func TestImageClone(t *testing.T) {
	const pool = imagePoolMin
	cases := []struct {
		name    string
		size    uint64
		src     uint64 // source's written prefix
		stale   uint64 // destination's old written prefix; 0 = fresh array
		inPlace bool   // CopyFrom into an existing image instead of Clone
	}{
		{name: "small/clone", size: 256, src: 16},
		{name: "pool/clone/fresh", size: pool, src: 4096},
		{name: "pool/clone/stale-shorter", size: pool, src: 4096, stale: 1000},
		{name: "pool/clone/stale-equal", size: pool, src: 4096, stale: 4096},
		{name: "pool/clone/stale-longer", size: pool, src: 4096, stale: 70_000},
		{name: "pool/clone/whole", size: pool, src: pool, stale: 4096},
		{name: "pool/copy/fresh", size: pool, src: 4096, inPlace: true},
		{name: "pool/copy/stale-shorter", size: pool, src: 4096, stale: 1000, inPlace: true},
		{name: "pool/copy/stale-equal", size: pool, src: 4096, stale: 4096, inPlace: true},
		{name: "pool/copy/stale-longer", size: pool, src: 4096, stale: 70_000, inPlace: true},
		{name: "pool/copy/unwritten-source", size: pool, src: 0, stale: 70_000, inPlace: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A fresh destination is then a fresh array, and a stale one
			// is the array staged below.
			drainPool()
			src := NewImage(DefaultBase, c.size)
			defer src.Release()
			fillImage(src, c.src, 0x10)
			var dst *Image
			if c.inPlace {
				dst = NewImage(DefaultBase, c.size)
				fillImage(dst, c.stale, 0x80)
				dst.CopyFrom(src)
			} else {
				var staged *byte
				if c.stale > 0 {
					// Hand the pool one array dirty through c.stale for
					// Clone to recycle.
					old := NewImage(DefaultBase, c.size)
					fillImage(old, c.stale, 0x80)
					staged = &old.data[0]
					old.Release()
				}
				dst = src.Clone()
				if staged != nil && &dst.data[0] != staged {
					t.Fatal("Clone did not recycle the staged array")
				}
			}
			defer dst.Release()
			if dst.Base() != src.Base() || dst.Size() != src.Size() || dst.lo != src.lo || dst.hi != src.hi {
				t.Fatalf("geometry: base %#x size %d extent [%d, %d), want %#x %d [%d, %d)",
					uint64(dst.Base()), dst.Size(), dst.lo, dst.hi, uint64(src.Base()), src.Size(), src.lo, src.hi)
			}
			end := min(max(c.src, c.stale)+BlockSize, c.size)
			for i := uint64(0); i < end; i++ {
				if dst.data[i] != src.data[i] {
					t.Fatalf("byte %d = %#x, want %#x (source prefix %d, stale prefix %d)",
						i, dst.data[i], src.data[i], c.src, c.stale)
				}
			}
			// The copy is detached from its source.
			src.WriteU64(DefaultBase, 99)
			if c.src >= 8 && dst.ReadU64(DefaultBase) == 99 {
				t.Error("copy shares storage with its source")
			}
		})
	}
}

// span is one write of an extent test: n pattern bytes at offset off.
type span struct{ off, n uint64 }

// writeSpans writes each span's pattern, tagged tag, into im.
func writeSpans(im *Image, tag byte, spans []span) {
	for i, sp := range spans {
		im.Write(im.Base()+Addr(sp.off), pattern(sp.n, tag+byte(16*i)))
	}
}

// freshImage is an image on an array nothing has used before, with
// spans written: what every recycled or copied image must equal.
func freshImage(size uint64, tag byte, spans []span) *Image {
	im := &Image{base: DefaultBase, data: make([]byte, size)}
	im.clean()
	writeSpans(im, tag, spans)
	return im
}

// TestImageExtent: NewImage over a recycled array, and Clone and
// CopyFrom into a destination holding stale writes, for source and
// destination extents that are empty, disjoint, nested or overlapping.
// Each result must equal, byte for byte and extent for extent, a fresh
// image written the same way as the source.
func TestImageExtent(t *testing.T) {
	const size = imagePoolMin
	cases := []struct {
		name       string
		src, stale []span
	}{
		{name: "both-empty"},
		{name: "empty-source", stale: []span{{1000, 4000}}},
		{name: "empty-destination", src: []span{{2000, 1000}}},
		{name: "disjoint/stale-below", src: []span{{135168, 128}}, stale: []span{{100, 800}}},
		{name: "disjoint/stale-above", src: []span{{4096, 104}}, stale: []span{{70000, 100}}},
		{name: "disjoint/stale-on-both-sides", src: []span{{8192, 64}}, stale: []span{{64, 64}, {200000, 64}}},
		{name: "nested/source-inside", src: []span{{4000, 1000}}, stale: []span{{1000, 8000}}},
		{name: "nested/stale-inside", src: []span{{1000, 8000}}, stale: []span{{4000, 1000}}},
		{name: "nested/stale-in-source-gap", src: []span{{100, 100}, {60000, 100}}, stale: []span{{5000, 1000}}},
		{name: "overlap/stale-lower", src: []span{{3000, 5000}}, stale: []span{{1000, 4000}}},
		{name: "overlap/stale-higher", src: []span{{1000, 4000}}, stale: []span{{3000, 5000}}},
		{name: "equal", src: []span{{4096, 512}}, stale: []span{{4096, 512}}},
		{name: "image-end", src: []span{{size - BlockSize, BlockSize}}, stale: []span{{0, 64}, {size - 8, 8}}},
	}
	// staleImage returns a pooled image holding the case's stale writes.
	staleImage := func(stale []span) *Image {
		im := NewImage(DefaultBase, size)
		writeSpans(im, 0x80, stale)
		return im
	}
	// check compares got with the fresh image written like the source.
	check := func(t *testing.T, what string, got *Image, src []span) {
		t.Helper()
		want := freshImage(size, 0x10, src)
		if got.lo != want.lo || got.hi != want.hi {
			t.Errorf("%s: extent [%d, %d), want [%d, %d)", what, got.lo, got.hi, want.lo, want.hi)
		}
		if i := firstDiff(got.data, want.data); i >= 0 {
			t.Errorf("%s: byte %d = %#x, a fresh image holds %#x", what, i, got.data[i], want.data[i])
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Run("new-image", func(t *testing.T) {
				drainPool()
				defer drainPool()
				old := staleImage(c.stale)
				array := &old.data[0]
				old.Release()
				im := NewImage(DefaultBase, size)
				defer im.Release()
				if &im.data[0] != array {
					t.Fatal("NewImage did not recycle the stale array")
				}
				writeSpans(im, 0x10, c.src)
				check(t, "NewImage", im, c.src)
			})
			t.Run("clone", func(t *testing.T) {
				drainPool()
				defer drainPool()
				src := freshImage(size, 0x10, c.src)
				old := staleImage(c.stale)
				array := &old.data[0]
				old.Release()
				cl := src.Clone()
				defer cl.Release()
				if &cl.data[0] != array {
					t.Fatal("Clone did not recycle the stale array")
				}
				check(t, "Clone", cl, c.src)
			})
			t.Run("copy-from", func(t *testing.T) {
				drainPool()
				defer drainPool()
				src := freshImage(size, 0x10, c.src)
				dst := staleImage(c.stale)
				defer dst.Release()
				dst.CopyFrom(src)
				check(t, "CopyFrom", dst, c.src)
			})
		})
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// drainPool empties the recycle pool, freeing its arrays.
func drainPool() {
	imagePool.mu.Lock()
	free := imagePool.free
	imagePool.free = nil
	imagePool.mu.Unlock()
	for _, e := range free {
		freeLarge(e.v.data)
	}
}

// TestImageArraysFreed checks who frees a large image's array, counted
// through arraysFreed: the cleanup of an image dropped without Release,
// never that of a released one (its array lives on in the pool), and
// the pool for each array it drops.
func TestImageArraysFreed(t *testing.T) {
	const size = imagePoolMin
	// awaitFreed runs collections until want arrays have been freed
	// since from or the deadline passes; cleanups run on their own
	// goroutine after the collection that finds the image unreachable.
	awaitFreed := func(from, want int64) int64 {
		deadline := time.Now().Add(5 * time.Second)
		for arraysFreed.Load()-from < want && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		return arraysFreed.Load() - from
	}
	t.Run("unreleased", func(t *testing.T) {
		drainPool()
		from := arraysFreed.Load()
		func() {
			im := NewImage(DefaultBase, size)
			im.WriteU64(DefaultBase, 1)
		}()
		if n := awaitFreed(from, 1); n != 1 {
			t.Fatalf("%d arrays freed after dropping an unreleased image, want 1", n)
		}
	})
	t.Run("released", func(t *testing.T) {
		drainPool()
		defer drainPool()
		from := arraysFreed.Load()
		im := NewImage(DefaultBase, size)
		im.WriteU64(DefaultBase, 1)
		im.Release()
		im = nil
		for i := 0; i < 3; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if n := arraysFreed.Load() - from; n != 0 {
			t.Fatalf("%d arrays freed after releasing an image into the pool, want 0", n)
		}
		// The pooled array is intact: the next image of its size uses it.
		b := NewImage(DefaultBase, size)
		b.WriteU64(DefaultBase+size-8, 2)
		if b.ReadU64(DefaultBase) != 0 || b.ReadU64(DefaultBase+size-8) != 2 {
			t.Error("recycled array misread")
		}
		b.Release()
	})
	t.Run("dropped-by-pool", func(t *testing.T) {
		drainPool()
		defer drainPool()
		from := arraysFreed.Load()
		ims := make([]*Image, imagePool.limit()+1)
		for i := range ims {
			ims[i] = NewImage(DefaultBase, size)
		}
		for _, im := range ims {
			im.Release()
		}
		if n := arraysFreed.Load() - from; n != 1 {
			t.Fatalf("the pool freed %d arrays after one release past its bound, want 1", n)
		}
	})
}

// TestNewImageRecycles: NewImage takes a released array of its size,
// with the written extent cleared, and leaves an array of another size for
// its own size. The pool's policy is TestFreeListPolicy's.
func TestNewImageRecycles(t *testing.T) {
	const size = imagePoolMin
	drainPool()
	defer drainPool()
	array := func(im *Image) *byte { return &im.data[0] }

	a := NewImage(DefaultBase, size)
	a.WriteU64(DefaultBase+size-8, 7)
	wantA := array(a)
	a.Release()
	big := NewImage(DefaultBase, 2*size)
	wantBig := array(big)
	big.Release()
	b := NewImage(DefaultBase, size)
	if array(b) != wantA {
		t.Error("NewImage did not recycle the released array")
	}
	if b.ReadU64(DefaultBase+size-8) != 0 || b.lo <= b.hi {
		t.Error("recycled image not cleared")
	}
	c := NewImage(DefaultBase, 2*size)
	if array(c) != wantBig {
		t.Error("the other size's array was not kept for it")
	}
	b.Release()
	c.Release()
}

// TestImagePoolConcurrent cycles images through the shared pool from
// several goroutines: each writes its own pattern to a prefix of its own
// length, clones it, copies the clone into an image it dirtied with
// other bytes, and checks all three before releasing them. A recycled
// array handed to two owners, or stale bytes surviving a recycle, shows
// up as another goroutine's pattern.
func TestImagePoolConcurrent(t *testing.T) {
	const size, workers, rounds = imagePoolMin, 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tag := byte(16*w + r)
				n := uint64(1+(w+r)%5) * 8192
				im := NewImage(DefaultBase, size)
				fillImage(im, n, tag)
				c := im.Clone()
				d := NewImage(DefaultBase, size)
				fillImage(d, uint64(5-(w+r)%5)*8192, ^tag)
				d.CopyFrom(c)
				want := make([]byte, size)
				copy(want, pattern(n, tag))
				for i, x := range []*Image{im, c, d} {
					if !bytes.Equal(x.data, want) || x.lo != 0 || x.hi != n {
						errs <- fmt.Errorf("worker %d round %d: image %d differs from its own pattern", w, r, i)
						return
					}
				}
				im.Release()
				c.Release()
				d.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSpacePersistBlockAndDivergence(t *testing.T) {
	s := NewSpace(1 << 12)
	a := s.Base() + 64
	s.Arch.WriteU64(a, 7)
	if !s.Divergent(a) {
		t.Error("expected divergence after arch-only write")
	}
	s.PersistBlock(a)
	if s.Divergent(a) {
		t.Error("expected convergence after PersistBlock")
	}
	if s.PM.ReadU64(a) != 7 {
		t.Error("PersistBlock did not copy data")
	}
}

func TestSpacePersistBytesOrdering(t *testing.T) {
	// A late-arriving stale payload must clobber a newer one: this is the
	// store-misspeculation "missing update" semantics.
	s := NewSpace(1 << 12)
	a := s.Base()
	new8 := make([]byte, 8)
	old8 := make([]byte, 8)
	new8[0], old8[0] = 2, 1
	s.PersistBytes(a, new8) // thread 2's newer value arrives first
	s.PersistBytes(a, old8) // thread 1's older value arrives late
	if got := s.PM.ReadU64(a); got != 1 {
		t.Errorf("PM value = %d, want 1 (missing update reproduced)", got)
	}
}

func TestHeapAllocBasics(t *testing.T) {
	s := NewSpace(1 << 16)
	h := NewHeap(s, 1024)
	a := h.Alloc(10) // rounds to 16
	b := h.Alloc(10)
	if a == b {
		t.Error("distinct allocations share an address")
	}
	if a < s.Base()+1024 {
		t.Error("allocation inside reserved prefix")
	}
	if a%8 != 0 || b%8 != 0 {
		t.Error("allocations not 8-byte aligned")
	}
	h.Free(a, 10)
	c := h.Alloc(10)
	if c != a {
		t.Errorf("free-list reuse failed: got %#x, want %#x", uint64(c), uint64(a))
	}
}

func TestHeapAllocBlockAlignment(t *testing.T) {
	s := NewSpace(1 << 16)
	h := NewHeap(s, 0)
	h.Alloc(8) // misalign the bump pointer
	a := h.AllocBlock(64)
	if BlockOff(a) != 0 {
		t.Errorf("AllocBlock returned unaligned %#x", uint64(a))
	}
	b := h.AllocBlock(100) // rounds to 128
	if BlockOff(b) != 0 || b < a+64 {
		t.Errorf("second AllocBlock = %#x", uint64(b))
	}
	h.FreeBlock(a, 64)
	if c := h.AllocBlock(64); c != a {
		t.Error("aligned free list not reused")
	}
}

func TestHeapAccounting(t *testing.T) {
	s := NewSpace(1 << 16)
	h := NewHeap(s, 0)
	a := h.Alloc(24)
	if h.Allocated != 24 {
		t.Errorf("Allocated = %d, want 24", h.Allocated)
	}
	h.Free(a, 24)
	if h.Allocated != 0 {
		t.Errorf("Allocated = %d after free, want 0", h.Allocated)
	}
	if len(h.FreeListSizes()) != 1 {
		t.Error("expected one populated free-list class")
	}
}

func TestHeapExhaustionPanics(t *testing.T) {
	s := NewSpace(256)
	h := NewHeap(s, 0)
	defer func() {
		if recover() == nil {
			t.Error("exhaustion did not panic")
		}
	}()
	h.Alloc(512)
}

func TestHeapAllocFreeProperty(t *testing.T) {
	s := NewSpace(1 << 20)
	defer s.Release()
	h := NewHeap(s, 0)
	live := make(map[Addr]uint64)
	f := func(sizes []uint16) bool {
		for _, raw := range sizes {
			sz := uint64(raw%512) + 1
			a := h.Alloc(sz)
			if _, dup := live[a]; dup {
				return false // overlap with a live allocation
			}
			live[a] = sz
		}
		for a, sz := range live {
			h.Free(a, sz)
			delete(live, a)
		}
		return h.Allocated == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBlockSliceAliasesImage(t *testing.T) {
	im := NewImage(0, 1024)
	im.WriteU64(128, 0x1122334455667788)
	s := im.BlockSlice(130) // any address inside the block
	if got := leU64t(s[:8]); got != 0x1122334455667788 {
		t.Fatalf("BlockSlice contents = %#x", got)
	}
	s[0] = 0xff // writes through to the image
	if got := im.ReadU64(128); got&0xff != 0xff {
		t.Errorf("BlockSlice does not alias image: %#x", got)
	}
	if len(s) != BlockSize || cap(s) != BlockSize {
		t.Errorf("len/cap = %d/%d, want %d", len(s), cap(s), BlockSize)
	}
}

func leU64t(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestStaleBlock(t *testing.T) {
	s := NewSpace(4096)
	a := s.Base() + 256
	if blk := s.StaleBlock(a); blk != nil {
		t.Fatal("converged block reported stale")
	}
	s.Arch.WriteU64(a, 42)
	blk := s.StaleBlock(a)
	if blk == nil {
		t.Fatal("divergent block not reported stale")
	}
	// The copy holds the persisted (old) bytes and is detached from both
	// images.
	if got := leU64t(blk[:8]); got != 0 {
		t.Errorf("stale copy = %d, want persisted 0", got)
	}
	blk[0] = 0xee
	if s.PM.ReadU64(a) != 0 || s.Arch.ReadU64(a) != 42 {
		t.Error("StaleBlock copy aliases an image")
	}
}

func TestImageReleaseIdempotent(t *testing.T) {
	size := uint64(imagePoolMin)
	im := NewImage(DefaultBase, size)
	im.WriteU64(DefaultBase, 7)
	im.Release()
	// A second Release must be a no-op — the historical bug put the same
	// backing array into the pool twice, so two later images aliased it.
	im.Release()
	a := NewImage(DefaultBase, size)
	defer a.Release()
	b := NewImage(DefaultBase, size)
	defer b.Release()
	a.WriteU64(DefaultBase, 1)
	if got := b.ReadU64(DefaultBase); got != 0 {
		t.Fatalf("images allocated after a double release share a backing array (read %d)", got)
	}
	// The released image has no storage: use-after-release must fail
	// loudly instead of mutating whatever image recycled the array.
	defer func() {
		if recover() == nil {
			t.Fatal("write through a released image did not panic")
		}
	}()
	im.WriteU64(DefaultBase, 9)
}

func TestSpaceReleaseIdempotent(t *testing.T) {
	s := NewSpace(1 << 20)
	s.Release()
	s.Release() // must not nil-deref the already-released images
	if s.Arch != nil || s.PM != nil {
		t.Fatal("released space still holds images")
	}
}
