package workload

import (
	"fmt"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
)

// NaiveLog is a deliberately unoptimized per-thread append log: every
// operation writes one 64-byte record word by word, flushes it word by
// word, closes the record epoch with an ordering barrier, then
// publishes the record count in a per-thread header under a second
// epoch. It is correct on every design but persist-inefficient in
// exactly the way flushcoalesce targets — the eight adjacent word
// flushes coalesce into one line flush. The checksum work after the
// flush run overlaps the writeback with compute, so the closing
// barrier itself is free and the per-flush issue slots are what the
// record costs — the coalesce removes seven of the eight.
// The record epoch's closing barrier, by contrast, is load-bearing:
// the header flush between it and the durability barrier is a
// conflicting persist (per-controller write-pending queues can admit
// it before a delayed record writeback), so no rewrite may merge the
// two epochs into one.
// The crash invariant (header count n implies records 0..n-1 intact)
// survives the coalesce, which is what pmemspec-opt's verify leg
// demonstrates.
type NaiveLog struct {
	perThread int
	threads   int
	base      mem.Addr // records: perThread * 64 B per thread
	hbase     mem.Addr // headers: one block per thread
}

// NewNaiveLog returns the benchmark.
func NewNaiveLog() *NaiveLog { return &NaiveLog{} }

// Name implements Workload.
func (w *NaiveLog) Name() string { return "naivelog" }

// Description implements Workload.
func (w *NaiveLog) Description() string {
	return "Unoptimized per-thread append log (word-granular flushes, two epochs per record)"
}

// recBytes is the fixed record size: one cache line, eight words.
const recBytes = 64

// MemBytes implements Workload.
func (w *NaiveLog) MemBytes(p Params) uint64 {
	n := uint64(p.Threads) * uint64(p.Ops) * recBytes
	return fatomic.HeapReserve(p.Threads) + n + uint64(p.Threads)*mem.BlockSize + 8<<20
}

// Setup implements Workload: zero the headers so a pre-first-commit
// crash recovers an empty log.
func (w *NaiveLog) Setup(e *Env, t *machine.Thread) {
	w.perThread = e.P.Ops
	w.threads = e.P.Threads
	w.base = e.Heap.AllocBlock(uint64(w.threads) * uint64(w.perThread) * recBytes)
	w.hbase = e.Heap.AllocBlock(uint64(w.threads) * mem.BlockSize)
	for tid := 0; tid < w.threads; tid++ {
		t.StoreU64(w.hdrAddr(tid), 0)
		setupFlush(e, t, w.hdrAddr(tid), 8)
	}
	setupCommit(e, t)
}

func (w *NaiveLog) recAddr(tid, op int) mem.Addr {
	return w.base + mem.Addr(tid*w.perThread+op)*recBytes
}

func (w *NaiveLog) hdrAddr(tid int) mem.Addr {
	return w.hbase + mem.Addr(tid)*mem.BlockSize
}

// recWord derives record word j of (tid, op) — deterministic so Verify
// can recompute it.
func recWord(tid, op, j int) uint64 {
	return uint64(tid+1)<<48 ^ uint64(op+1)<<16 ^ uint64(j)*0x9e3779b97f4a7c15
}

// Run implements Workload: the naive two-epoch append protocol.
func (w *NaiveLog) Run(e *Env, t *machine.Thread, tid int) {
	m := e.RT.Model()
	hdr := w.hdrAddr(tid)
	for op := 0; op < e.P.Ops; op++ {
		rec := w.recAddr(tid, op)
		t.StoreU64(rec, recWord(tid, op, 0))
		t.StoreU64(rec+8, recWord(tid, op, 1))
		t.StoreU64(rec+16, recWord(tid, op, 2))
		t.StoreU64(rec+24, recWord(tid, op, 3))
		t.StoreU64(rec+32, recWord(tid, op, 4))
		t.StoreU64(rec+40, recWord(tid, op, 5))
		t.StoreU64(rec+48, recWord(tid, op, 6))
		t.StoreU64(rec+56, recWord(tid, op, 7))
		m.Flush(t, rec, 8)
		m.Flush(t, rec+8, 8)
		m.Flush(t, rec+16, 8)
		m.Flush(t, rec+24, 8)
		m.Flush(t, rec+32, 8)
		m.Flush(t, rec+40, 8)
		m.Flush(t, rec+48, 8)
		m.Flush(t, rec+56, 8)
		t.Work(16)        // record checksum; overlaps the in-flight writeback
		m.OrderBarrier(t) // close the record epoch: records drain before the header
		t.StoreU64(hdr, uint64(op+1))
		m.Flush(t, hdr, 8)
		m.DurableBarrier(t)
	}
}

// Verify implements Workload: each thread's header count n must be in
// range and records 0..n-1 must hold their derived words — the append
// invariant a crash between the epochs must not break.
func (w *NaiveLog) Verify(img *mem.Image, completedOps uint64) error {
	buf := make([]byte, 8)
	for tid := 0; tid < w.threads; tid++ {
		img.Read(w.hdrAddr(tid), buf)
		n := getU64(buf)
		if n > uint64(w.perThread) {
			return fmt.Errorf("naivelog: thread %d header count %d exceeds capacity %d", tid, n, w.perThread)
		}
		for op := 0; op < int(n); op++ {
			rec := w.recAddr(tid, op)
			for j := 0; j < 8; j++ {
				img.Read(rec+mem.Addr(j)*8, buf)
				if got, want := getU64(buf), recWord(tid, op, j); got != want {
					return fmt.Errorf("naivelog: thread %d record %d word %d = %#x, want %#x (header published before record durable)",
						tid, op, j, got, want)
				}
			}
		}
	}
	return nil
}
