package machine

import (
	"fmt"

	"pmemspec/internal/cache"
	"pmemspec/internal/mem"
	"pmemspec/internal/sim"
)

// Fault is the simulated equivalent of a segmentation fault: an access
// outside the PM region, typically caused by a pointer read from stale
// data after a load misspeculation. The failure-atomic runtime's
// misspeculation handler catches it and, if a misspeculation is pending,
// suppresses it and aborts the FASE instead (§6.2.1).
type Fault struct {
	Addr mem.Addr
	Op   string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("machine: simulated fault: %s at %#x", f.Op, uint64(f.Addr))
}

// issueCost is the per-instruction front-end cost (one cycle at 2 GHz).
const issueCost = sim.Time(1)

// storeQueue models the 32-entry store queue: stores and CLWBs occupy an
// entry until they complete; a full queue stalls the thread — the
// mechanism behind the paper's "CLWB and SFENCE consume the store queue
// entries, blocking CPUs".
type storeQueue struct {
	cap     int
	pending []sim.Time // completion times
}

func newStoreQueue(capacity int) *storeQueue {
	return &storeQueue{cap: capacity}
}

// reserve frees completed entries as of `now` and, if the queue is still
// full, returns the stall deadline (earliest completion). Zero means a
// slot is free.
func (q *storeQueue) reserve(now sim.Time) sim.Time {
	kept := q.pending[:0]
	for _, c := range q.pending {
		if c > now {
			kept = append(kept, c)
		}
	}
	q.pending = kept
	if len(q.pending) < q.cap {
		return 0
	}
	min := q.pending[0]
	for _, c := range q.pending[1:] {
		if c < min {
			min = c
		}
	}
	return min
}

func (q *storeQueue) push(done sim.Time) { q.pending = append(q.pending, done) }

// drainTime returns the completion time of the slowest pending entry.
func (q *storeQueue) drainTime() sim.Time {
	var max sim.Time
	for _, c := range q.pending {
		if c > max {
			max = c
		}
	}
	return max
}

// Thread is a simulated hardware thread pinned to one core, exposing the
// ISA-level operations of the evaluated designs.
type Thread struct {
	m      *Machine
	sim    *sim.Thread
	coreID int
	sq     *storeQueue

	// specID is PMEM-Spec's per-thread speculation-ID register; specStack
	// virtualizes it across nested critical sections.
	specID    uint64
	specStack []uint64

	// strand is StrandWeaver's current-strand register (0 = default
	// strand until the first NewStrand).
	strand uint64

	// Per-thread PM-fetch slot: a thread blocks on its fetch, so at most
	// one is outstanding and the service event (Thread.OnEvent) needs no
	// per-fetch allocation.
	fetchAddr      mem.Addr
	fetchDivergent *[mem.BlockSize]byte
	fetchDone      bool
}

// Core returns the core the thread is pinned to.
func (t *Thread) Core() int { return t.coreID }

// Clock returns the thread's local simulated time.
func (t *Thread) Clock() sim.Time { return t.sim.Clock() }

// Machine returns the owning machine.
func (t *Thread) Machine() *Machine { return t.m }

// Sim returns the underlying kernel thread.
func (t *Thread) Sim() *sim.Thread { return t.sim }

// Work advances the thread by d cycles of pure computation.
func (t *Thread) Work(d sim.Time) { t.sim.Advance(d) }

// checkRange faults (panics with *Fault) on accesses outside PM —
// the simulated segfault.
func (t *Thread) checkRange(a mem.Addr, n int, op string) {
	if !t.m.space.Contains(a, n) {
		panic(&Fault{Addr: a, Op: op})
	}
}

// reserveSQ claims a store-queue slot, stalling if the queue is full.
func (t *Thread) reserveSQ() {
	for {
		stall := t.sq.reserve(t.sim.Clock())
		if stall == 0 {
			return
		}
		t.m.stats.SQStallCycles += stall - t.sim.Clock()
		t.sim.AdvanceTo(stall)
	}
}

// Load reads len(p) bytes from PM into p. Reads larger than 8 bytes are
// split into 8-byte loads. The returned data reflects what the hardware
// would deliver — including stale bytes from a misspeculated PM fetch.
func (t *Thread) Load(a mem.Addr, p []byte) {
	for off := 0; off < len(p); {
		n := len(p) - off
		if n > 8 {
			n = 8
		}
		// Keep single loads inside one cache block.
		if rem := mem.BlockSize - mem.BlockOff(a+mem.Addr(off)); n > rem {
			n = rem
		}
		t.loadOne(a+mem.Addr(off), p[off:off+n])
		off += n
	}
}

// LoadU64 reads a little-endian uint64.
func (t *Thread) LoadU64(a mem.Addr) uint64 {
	var b [8]byte
	t.Load(a, b[:])
	return leU64(b[:])
}

func (t *Thread) loadOne(a mem.Addr, p []byte) {
	t.checkRange(a, len(p), "load")
	t.m.stats.Loads++
	t.sim.Advance(issueCost)
	now := t.sim.Clock()
	// HOPS: a read of a block with another core's pending persists
	// inherits the dependency (RAW through coherence).
	t.m.hopsTouch(t.coreID, mem.BlockAlign(a), now, 0, false)
	res := t.m.hier.Load(t.coreID, a)
	switch res.Level {
	case cache.LevelL1:
		t.sim.Advance(t.m.cfg.L1Latency)
		t.m.stats.L1Hits++
		t.readLine(res.Line, a, p)
	case cache.LevelLLC:
		t.sim.Advance(t.m.cfg.L1Latency + t.m.cfg.LLCLatency + t.stickyPenalty())
		t.m.stats.LLCHits++
		t.readLine(res.Line, a, p)
	case cache.LevelMemory:
		line := t.fetchFromPM(now, a)
		t.readLine(line, a, p)
	}
}

// stickyPenalty is HOPS's extra bus cycle for the sticky-M bit.
func (t *Thread) stickyPenalty() sim.Time {
	if t.m.cfg.Design == HOPS {
		return t.m.cfg.StickyBitPenalty
	}
	return 0
}

// readLine copies data for a from the line's divergent override (stale
// cached contents) or the architectural image.
func (t *Thread) readLine(line *cache.Line, a mem.Addr, p []byte) {
	if line != nil {
		if d := line.Divergent(); d != nil {
			off := mem.BlockOff(a)
			copy(p, d[off:off+len(p)])
			return
		}
	}
	t.m.space.Arch.Read(a, p)
}

// fetchFromPM performs the full PM fetch for a block that missed the
// hierarchy: the request reaches the controller, the speculation buffer
// (PMEM-Spec) or bloom filter (HOPS) observes it, the media read is
// serviced, and the block is filled — stale if persists for it are
// still in flight. The thread blocks until the data returns.
func (t *Thread) fetchFromPM(issued sim.Time, a mem.Addr) *cache.Line {
	m := t.m
	m.stats.PMFetches++
	arrival := issued + m.cfg.L1Latency + m.cfg.LLCLatency + t.stickyPenalty()
	t.fetchAddr = a
	t.fetchDivergent = nil
	t.fetchDone = false
	if t.sim.TryInlineEvent(arrival) {
		// Nothing can be dispatched before the fetch reaches the
		// controller: service it inline, skipping the event round-trip
		// and the two coroutine switches of Block/Wake.
		t.sim.FinishInlineEvent(t.fetchArrive(arrival))
	} else {
		m.kernel.ScheduleHandler(arrival, t, 0)
		t.sim.Block("pm-fetch")
	}
	if !t.fetchDone {
		panic("machine: fetch wake without completion")
	}
	res := m.hier.FillFromMemory(t.coreID, a, t.fetchDivergent)
	if res.LLCEvicted {
		m.handleLLCEviction(t.sim.Clock(), res.LLCVictim)
	}
	return res.Line
}

// OnEvent services the thread's outstanding PM fetch at its controller
// arrival time (sim.Handler; the fetch slot carries the request).
func (t *Thread) OnEvent(arrival sim.Time, _ uint64) {
	t.sim.Wake(t.fetchArrive(arrival))
}

// fetchArrive is the fetch's controller-side service, shared by the
// event path (OnEvent) and the inline fast path: detection structures
// observe the read, the media data is snapshotted, and the returned time
// is when the fill reaches the core.
func (t *Thread) fetchArrive(arrival sim.Time) (ready sim.Time) {
	m := t.m
	a := t.fetchAddr
	idx := m.ctrlIndex(a)
	at := arrival
	if m.bloom != nil {
		// HOPS: every PM load consults the bloom filter; conflicts
		// postpone the read until the pending persists drain.
		at = m.bloom.Check(a, arrival+m.bloom.LookupCost)
	}
	if m.specBufs != nil {
		m.specBufs[idx].OnRead(at, a)
	}
	// Snapshot the data the media will return: the persisted image
	// as of the read's service time. Under PMEM-Spec this may be
	// stale — that is the speculation.
	if m.cfg.Design == PMEMSpec {
		if blk := m.space.StaleBlock(a); blk != nil {
			m.stats.StaleFetches++
			t.fetchDivergent = blk
		}
	}
	ready = m.ctrls[idx].Read(at) + m.cfg.WritebackLatency
	t.fetchDone = true
	return ready
}

// Store writes p to PM. Writes larger than 8 bytes are split into
// 8-byte stores, each persisted according to the design's datapath.
func (t *Thread) Store(a mem.Addr, p []byte) {
	t.store(a, p, t.specID)
}

// StorePrivate writes p to PM without a speculation-ID tag even inside
// a critical section. The runtime uses it for thread-private persistent
// data (its undo logs): such blocks can never carry an inter-thread
// dependency, so tagging them would only churn the speculation buffer —
// which is why the paper's buffer entries stay short-living and rare
// (§8.3.2). Application data must use Store.
func (t *Thread) StorePrivate(a mem.Addr, p []byte) {
	t.store(a, p, 0)
}

func (t *Thread) store(a mem.Addr, p []byte, specID uint64) {
	for off := 0; off < len(p); {
		n := len(p) - off
		if n > 8 {
			n = 8
		}
		if rem := mem.BlockSize - mem.BlockOff(a+mem.Addr(off)); n > rem {
			n = rem
		}
		t.storeOne(a+mem.Addr(off), p[off:off+n], specID)
		off += n
	}
}

// StoreU64 writes a little-endian uint64.
func (t *Thread) StoreU64(a mem.Addr, v uint64) {
	var b [8]byte
	putLeU64(b[:], v)
	t.Store(a, b[:])
}

// StorePrivateU64 is StorePrivate for a little-endian uint64.
func (t *Thread) StorePrivateU64(a mem.Addr, v uint64) {
	var b [8]byte
	putLeU64(b[:], v)
	t.StorePrivate(a, b[:])
}

func (t *Thread) storeOne(a mem.Addr, p []byte, specID uint64) {
	t.checkRange(a, len(p), "store")
	t.m.stats.Stores++
	t.sim.Advance(issueCost)
	t.reserveSQ()

	m := t.m
	res := m.hier.Store(t.coreID, a)
	line := res.Line
	if res.Level == cache.LevelMemory {
		// Write-allocate: fetch the block (blocking), then complete.
		line = t.fetchFromPM(t.sim.Clock(), a)
		m.hier.CompleteStore(t.coreID, a)
	} else if res.Level == cache.LevelLLC {
		t.sim.Advance(m.cfg.LLCLatency + t.stickyPenalty())
	}
	now := t.sim.Clock()

	// Apply the write to the coherent image and to the cached copy's
	// stale override if one exists (the line keeps its stale base bytes
	// but carries this store's data on top, as real hardware would).
	m.space.Arch.Write(a, p)
	if line != nil {
		if d := line.Divergent(); d != nil {
			copy(d[mem.BlockOff(a):], p)
		}
	}
	t.sq.push(now + m.cfg.L1Latency)

	// Design-specific persistence datapath.
	switch m.cfg.Design {
	case PMEMSpec:
		m.pathsFor(a).Send(t.coreID, a, p, specID, now)
	case HOPS, DPO:
		pb := m.pbufs[t.coreID]
		for pb.Full() {
			free := pb.NextFree()
			if free <= t.sim.Clock() {
				break
			}
			m.stats.PBufStallCycles += free - t.sim.Clock()
			t.sim.AdvanceTo(free)
		}
		admit := pb.Append(t.sim.Clock(), a, p)
		if m.bloom != nil {
			m.bloom.Insert(a, admit)
		}
		m.hopsTouch(t.coreID, mem.BlockAlign(a), t.sim.Clock(), admit, true)
	case Strand:
		sb := m.sbufs[t.coreID]
		for sb.Full() {
			free := sb.NextFree()
			if free <= t.sim.Clock() {
				break
			}
			m.stats.PBufStallCycles += free - t.sim.Clock()
			t.sim.AdvanceTo(free)
		}
		sb.Append(t.sim.Clock(), t.strand, a, p)
	}
}

// CLWB writes a's dirty cache block back to the PM controller without
// invalidating it (IntelX86/DPO instrumentation). It occupies a store-
// queue entry until the flush is admitted to the WPQ; the following
// SFENCE waits for that completion. Under DPO the persist buffer already
// carries persistence, so CLWB retires immediately.
func (t *Thread) CLWB(a mem.Addr) {
	t.checkRange(a, 1, "clwb")
	m := t.m
	m.stats.CLWBs++
	t.sim.Advance(issueCost)
	t.reserveSQ()
	if m.cfg.Design != IntelX86 {
		t.sq.push(t.sim.Clock() + issueCost)
		return
	}
	l1, llc := m.hier.FindBlock(t.coreID, a)
	dirty := (l1 != nil && l1.Dirty()) || (llc != nil && llc.Dirty())
	if !dirty {
		t.sq.push(t.sim.Clock() + issueCost)
		return
	}
	now := t.sim.Clock()
	addr := mem.BlockAlign(a)
	arrive := now + m.cfg.WritebackLatency
	admit, _ := m.wpqs[m.ctrlIndex(addr)].Accept(arrive, addr)
	bw := blockWrite{at: admit, addr: addr}
	bw.snap = m.space.Arch.ReadBlock(a)
	m.pmWrites.entries = append(m.pmWrites.entries, bw)
	m.kernel.ScheduleHandler(admit, &m.pmWrites, uint64(admit))
	m.hier.CleanBlock(a)
	t.sq.push(admit)
}

// SFence stalls the thread until every pending store-queue entry —
// including outstanding CLWB flushes — completes (IntelX86). Under DPO
// it additionally waits for the persist buffer to drain (DPO enforces
// the persist-order on every barrier).
func (t *Thread) SFence() {
	m := t.m
	m.stats.SFences++
	t.sim.Advance(issueCost)
	start := t.sim.Clock()
	if d := t.sq.drainTime(); d > t.sim.Clock() {
		t.sim.AdvanceTo(d)
	}
	if m.cfg.Design == DPO {
		if d := m.pbufs[t.coreID].DrainTime(); d > t.sim.Clock() {
			t.sim.AdvanceTo(d)
		}
	}
	m.stats.BarrierStallCycles += t.sim.Clock() - start
	m.tl.Span(start, t.sim.Clock(), t.coreID, "barrier", "sfence")
	m.notifyDrain(t.coreID, t.sim.Clock())
}

// OFence closes the current epoch (HOPS): asynchronous, near-free.
func (t *Thread) OFence() {
	t.m.stats.OFences++
	t.sim.Advance(issueCost)
	if t.m.cfg.Design == HOPS {
		t.m.pbufs[t.coreID].OFence()
	}
}

// DFence stalls the thread until its persist buffer has drained to the
// persistent domain (HOPS durability barrier), including any
// inter-thread dependencies inherited through coherence.
func (t *Thread) DFence() {
	m := t.m
	m.stats.DFences++
	t.sim.Advance(issueCost)
	start := t.sim.Clock()
	if m.cfg.Design == HOPS || m.cfg.Design == DPO {
		if d := m.pbufs[t.coreID].DrainTime(); d > t.sim.Clock() {
			t.sim.AdvanceTo(d)
		}
		if m.hopsDepHorizon != nil {
			if d := m.hopsDepHorizon[t.coreID]; d > t.sim.Clock() {
				t.sim.AdvanceTo(d)
			}
		}
	}
	m.stats.BarrierStallCycles += t.sim.Clock() - start
	m.tl.Span(start, t.sim.Clock(), t.coreID, "barrier", "dfence")
	m.notifyDrain(t.coreID, t.sim.Clock())
}

// NewStrand opens a fresh strand for this core's subsequent PM stores
// (StrandWeaver): the new strand has no ordering dependencies on earlier
// stores — it "appears in the persist-order as a new thread".
func (t *Thread) NewStrand() {
	t.sim.Advance(issueCost)
	if t.m.cfg.Design == Strand {
		t.m.stats.NewStrands++
		t.strand = t.m.sbufs[t.coreID].NewStrand()
	}
}

// PersistBarrier orders this core's subsequent stores on the current
// strand after everything appended to it so far (asynchronous).
func (t *Thread) PersistBarrier() {
	t.sim.Advance(issueCost)
	if t.m.cfg.Design == Strand {
		t.m.stats.PersistBarriers++
		t.m.sbufs[t.coreID].PersistBarrier(t.strand)
	}
}

// JoinStrand stalls until every strand of this core has drained to the
// persistent domain — StrandWeaver's durability point.
func (t *Thread) JoinStrand() {
	m := t.m
	t.sim.Advance(issueCost)
	if m.cfg.Design != Strand {
		return
	}
	m.stats.JoinStrands++
	start := t.sim.Clock()
	if d := m.sbufs[t.coreID].JoinTime(); d > t.sim.Clock() {
		t.sim.AdvanceTo(d)
	}
	m.stats.BarrierStallCycles += t.sim.Clock() - start
	m.tl.Span(start, t.sim.Clock(), t.coreID, "barrier", "join_strand")
	t.strand = 0
	m.notifyDrain(t.coreID, t.sim.Clock())
}

// SpecBarrier is PMEM-Spec's durability barrier (§4.2): it stalls until
// every store this core pushed into the persist-path has arrived at the
// PM controller and been admitted to the persistent domain.
func (t *Thread) SpecBarrier() {
	m := t.m
	m.stats.SpecBarriers++
	t.sim.Advance(issueCost)
	if m.cfg.Design != PMEMSpec {
		return
	}
	start := t.sim.Clock()
	// Phase 1: wait for the last message's arrival on every fabric; by
	// then every arrival event has computed its WPQ admission.
	for _, ps := range m.pathSets {
		if d := ps.DrainTime(t.coreID); d > t.sim.Clock() {
			t.sim.AdvanceTo(d)
		}
	}
	// Phase 2: wait for the admission horizon (back-pressure).
	if d := m.coreAdmit[t.coreID]; d > t.sim.Clock() {
		t.sim.AdvanceTo(d)
	}
	m.stats.BarrierStallCycles += t.sim.Clock() - start
	m.tl.Span(start, t.sim.Clock(), t.coreID, "barrier", "spec_barrier")
	m.notifyDrain(t.coreID, t.sim.Clock())
}

// SpecAssign enters a critical section: the thread's speculation-ID
// register is loaded from the global counter, which increments — so
// threads carry IDs in the order they entered (§5.2.2). The previous
// register value is stacked to virtualize nesting.
func (t *Thread) SpecAssign() {
	t.sim.Advance(issueCost)
	t.specStack = append(t.specStack, t.specID)
	t.specID = t.m.nextSpecID
	t.m.nextSpecID++
	t.m.stats.SpecAssigns++
	t.m.tl.InstantArg(t.sim.Clock(), t.coreID, "spec", "spec_assign", "spec_id", int64(t.specID))
}

// SpecRevoke leaves a critical section, restoring the previous
// speculation ID (0 at top level: stores are untagged outside critical
// sections).
func (t *Thread) SpecRevoke() {
	t.sim.Advance(issueCost)
	revoked := t.specID
	if n := len(t.specStack); n > 0 {
		t.specID = t.specStack[n-1]
		t.specStack = t.specStack[:n-1]
	} else {
		t.specID = 0
	}
	t.m.stats.SpecRevokes++
	t.m.tl.InstantArg(t.sim.Clock(), t.coreID, "spec", "spec_revoke", "spec_id", int64(revoked))
}

// SpecID returns the thread's current speculation ID (tests).
func (t *Thread) SpecID() uint64 { return t.specID }

// SpecContext is the saved speculation-ID register state — what the OS
// preserves across a context switch (§5.2.2: "PMEM-Spec saves/restores
// the special register storing the speculation ID across context
// switches to virtualize it").
type SpecContext struct {
	id    uint64
	stack []uint64
}

// SaveSpecContext captures and clears the speculation register, as a
// context-switch out of a thread would: the core's subsequent stores
// (for another software thread) are untagged until a restore.
func (t *Thread) SaveSpecContext() SpecContext {
	ctx := SpecContext{id: t.specID, stack: append([]uint64(nil), t.specStack...)}
	t.specID = 0
	t.specStack = t.specStack[:0]
	return ctx
}

// RestoreSpecContext reinstates a saved speculation register, as a
// context-switch back in would. Without this, a software thread
// scheduled out inside a critical section would resume with untagged
// stores and silently lose store-misspeculation protection.
func (t *Thread) RestoreSpecContext(ctx SpecContext) {
	t.specID = ctx.id
	t.specStack = append(t.specStack[:0], ctx.stack...)
}

// Lock acquires l with the design's semantics: PMEM-Spec runs the
// compiler-inserted spec-assign; IntelX86's locked RMW drains the store
// queue; DPO's barriers additionally order the persist buffer.
func (t *Thread) Lock(l *sim.Mutex) {
	t.m.stats.LockAcquires++
	if l.Holder() != nil {
		t.m.stats.LockHandoffs++
	}
	start := t.sim.Clock()
	l.Lock(t.sim)
	t.m.tl.Span(start, t.sim.Clock(), t.coreID, "lock", "lock_acquire")
	t.lockAcquired()
}

// TryLock attempts to acquire l without blocking. On success it runs
// the same design-specific post-acquire sequence as Lock (spec-assign
// under PMEM-Spec, store-queue/persist-buffer drains under the RMW
// designs); on failure the thread's state is untouched.
func (t *Thread) TryLock(l *sim.Mutex) bool {
	if !l.TryLock(t.sim) {
		t.m.stats.TryLockFails++
		return false
	}
	t.m.stats.LockAcquires++
	t.lockAcquired()
	return true
}

// lockAcquired is the design-specific post-acquire step shared by Lock
// and TryLock.
func (t *Thread) lockAcquired() {
	switch t.m.cfg.Design {
	case PMEMSpec:
		t.SpecAssign()
	case IntelX86:
		if d := t.sq.drainTime(); d > t.sim.Clock() {
			t.sim.AdvanceTo(d)
		}
	case DPO:
		if d := t.sq.drainTime(); d > t.sim.Clock() {
			t.sim.AdvanceTo(d)
		}
		if d := t.m.pbufs[t.coreID].DrainTime(); d > t.sim.Clock() {
			t.sim.AdvanceTo(d)
		}
	}
}

// Unlock releases l, running spec-revoke first under PMEM-Spec and
// draining the persist buffer under DPO.
func (t *Thread) Unlock(l *sim.Mutex) {
	switch t.m.cfg.Design {
	case PMEMSpec:
		t.SpecRevoke()
	case DPO:
		if d := t.m.pbufs[t.coreID].DrainTime(); d > t.sim.Clock() {
			t.sim.AdvanceTo(d)
		}
	}
	l.Unlock(t.sim)
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
