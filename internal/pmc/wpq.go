package pmc

import (
	"pmemspec/internal/mem"
	"pmemspec/internal/metrics"
	"pmemspec/internal/sim"
)

// WPQ models the controller's write-pending queue — Intel's ADR
// persistent domain. A write is durable the moment it is *admitted* to
// the WPQ (§8.1: "All stores to PM from the persist-path will be durable
// once they appear at the PM controller"); the media write then drains
// in the background at Table 3's 94 ns through the controller's write
// banks. Admission is what every design's durability barrier waits for:
// post-ADR CLWB completion (IntelX86), persist-buffer drain (HOPS/DPO),
// and persist-path arrival (PMEM-Spec).
//
// The queue has bounded occupancy (64 entries, Table 3): when it is full,
// admission stalls until a media write completes and frees a slot —
// that back-pressure is the only way PM write bandwidth reaches the
// cores. Writes to a block already pending in the queue coalesce ("the
// PM controller … coalesces and buffers the store data").
type WPQ struct {
	cap  int
	ctrl *Controller
	// completions holds the media completion times of entries currently
	// occupying the queue (pruned lazily against the query time).
	// minDone caches their minimum (sim.Forever when empty) so the
	// common no-entry-retired case skips the compaction scan.
	completions []sim.Time
	minDone     sim.Time
	// blocks holds, per PM block, the media completion of its pending
	// entry (coalescing) — a block table indexed by block number, so the
	// per-store lookup is a shift instead of a map probe. Zero means "no
	// live entry" (media completions are always positive). Together with
	// liveList this reproduces the bounded tracking-table semantics
	// exactly: once more than 8192 entries are live, stale ones are
	// dropped (reset to zero), and a dropped entry cannot coalesce even
	// for a lagging caller whose `now` still precedes its completion
	// (Accept tolerates small time inversions, so that case is reachable
	// and observable).
	blocks   mem.BlockTable[sim.Time]
	liveList []uint32

	// Stats
	Accepts, Coalesced, FullStalls uint64
	StallTime                      sim.Time
	// PeakOccupancy is the largest number of simultaneously pending
	// entries observed.
	PeakOccupancy int

	// OccHist, when set, observes the queue occupancy after every
	// admission (nil-safe: unset costs one nil check per accept).
	OccHist *metrics.Histogram

	// OnAdmit, when set, observes every admission (including coalesced
	// ones) with its admission time — the instant the write becomes
	// durable under ADR. Crash campaigns align fault-injection points to
	// these boundaries.
	OnAdmit func(admit sim.Time, blk mem.Addr)
}

// coalesceTables recycles the coalescing tables' arrays between
// machines, one per P (a machine has one WPQ per PM controller, one in
// the paper's configuration).
var coalesceTables = mem.NewFreeList[uint64, []sim.Time](1)

// NewWPQ creates a write-pending queue of the given capacity in front of
// ctrl's media write banks. The queue serves the PM region
// [base, base+memBytes): its per-block coalescing table is a block table
// over that window.
func NewWPQ(ctrl *Controller, capacity int, base mem.Addr, memBytes uint64) *WPQ {
	if capacity < 1 {
		panic("pmc: WPQ capacity must be ≥ 1")
	}
	return &WPQ{cap: capacity, ctrl: ctrl, blocks: mem.NewBlockTable("pmc: WPQ", base, memBytes, coalesceTables), minDone: sim.Forever}
}

// Release returns the coalescing table's array to its free list. The
// queue must not be used afterwards; a second call is a no-op.
func (w *WPQ) Release() { w.blocks.Release() }

// Accept admits a write to blk arriving at the controller at time `now`.
// It returns the admission time (the durability point — equal to now
// unless the queue is full) and the media completion time. Callers must
// invoke Accept in approximately chronological order; the model tolerates
// small inversions.
func (w *WPQ) Accept(now sim.Time, blk mem.Addr) (admit, mediaDone sim.Time) {
	blk = mem.BlockAlign(blk)
	bi := w.blocks.Block(blk)
	w.prune(now)
	if done := w.blocks.Get(bi); done > now {
		// Coalesce with the pending entry: durable immediately, no new
		// media write.
		w.Coalesced++
		if w.OnAdmit != nil {
			w.OnAdmit(now, blk)
		}
		return now, done
	}
	admit = now
	if len(w.completions) >= w.cap {
		// Wait until enough media writes retire to free a slot. The
		// queue never exceeds its capacity (each Accept prunes before
		// appending one entry), so the slot that frees first is simply
		// the minimum completion — kth-smallest selection is the
		// general case only if need > 1, which cannot happen here.
		need := len(w.completions) - w.cap + 1
		if need == 1 {
			admit = w.minDone
		} else {
			admit = kthSmallest(w.completions, need)
		}
		if admit < now {
			admit = now
		}
		w.FullStalls++
		w.StallTime += admit - now
		w.prune(admit)
	}
	mediaDone = w.ctrl.Write(admit)
	w.completions = append(w.completions, mediaDone)
	if mediaDone < w.minDone {
		w.minDone = mediaDone
	}
	e := w.blocks.Ref(bi)
	if *e == 0 {
		w.liveList = append(w.liveList, uint32(bi))
	}
	*e = mediaDone
	w.Accepts++
	if len(w.completions) > w.PeakOccupancy {
		w.PeakOccupancy = len(w.completions)
	}
	w.OccHist.Observe(int64(len(w.completions)))
	if len(w.liveList) > 8192 {
		// Prune against admit, not now: on the full-queue stall path
		// admission advanced to admit > now, and entries already retired
		// by admit must become ineligible to coalesce — otherwise a
		// lagging store (Accept tolerates small time inversions) could
		// coalesce with an entry the stall already drained.
		w.pruneBlocks(admit)
	}
	if w.OnAdmit != nil {
		w.OnAdmit(admit, blk)
	}
	return admit, mediaDone
}

// pruneBlocks bounds the coalescing table's live set: entries whose media
// completion has passed are dropped and become ineligible to coalesce
// with, even for a slightly-lagging later Accept.
func (w *WPQ) pruneBlocks(now sim.Time) {
	kept := w.liveList[:0]
	for _, bi := range w.liveList {
		if e := w.blocks.Ref(uint64(bi)); *e <= now {
			*e = 0
		} else {
			kept = append(kept, bi)
		}
	}
	w.liveList = kept
}

// kthSmallest returns the k-th smallest element of s (k ≥ 1). k is 1 on
// every reachable path (see Accept); the general branch is a defensive
// O(k·n) selection.
func kthSmallest(s []sim.Time, k int) sim.Time {
	if k == 1 {
		min := s[0]
		for _, c := range s[1:] {
			if c < min {
				min = c
			}
		}
		return min
	}
	picked := sim.Time(-1 << 62)
	for ; k > 0; k-- {
		best := sim.Forever
		for _, c := range s {
			if c > picked && c < best {
				best = c
			}
		}
		picked = best
	}
	return picked
}

// Occupancy returns the number of entries pending at time now.
func (w *WPQ) Occupancy(now sim.Time) int {
	w.prune(now)
	return len(w.completions)
}

func (w *WPQ) prune(now sim.Time) {
	if w.minDone > now {
		return // nothing has retired since the last prune
	}
	kept := w.completions[:0]
	min := sim.Forever
	for _, c := range w.completions {
		if c > now {
			kept = append(kept, c)
			if c < min {
				min = c
			}
		}
	}
	w.completions = kept
	w.minDone = min
}

// Publish copies the queue's end-of-run statistics into the registry,
// accumulating (so multiple controllers' queues sum into one component).
func (w *WPQ) Publish(r *metrics.Registry) {
	r.Counter("wpq", "accepts").Add(w.Accepts)
	r.Counter("wpq", "coalesced").Add(w.Coalesced)
	r.Counter("wpq", "full_stalls").Add(w.FullStalls)
	r.Counter("wpq", "stall_cycles").Add(uint64(w.StallTime))
	r.Gauge("wpq", "peak_occupancy").Observe(int64(w.PeakOccupancy))
}
