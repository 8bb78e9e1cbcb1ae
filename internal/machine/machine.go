package machine

import (
	"errors"
	"fmt"

	"pmemspec/internal/cache"
	"pmemspec/internal/core"
	"pmemspec/internal/mem"
	"pmemspec/internal/metrics"
	"pmemspec/internal/pmc"
	"pmemspec/internal/ppath"
	"pmemspec/internal/sim"
)

// ErrCrashed is returned by Run when an injected power failure stopped
// the machine. The persisted image then holds exactly the ADR-durable
// state: every write admitted to the WPQ before the crash instant.
var ErrCrashed = errors.New("machine: power failure injected")

// ErrCanceled is returned by Run when the configured Cancel callback
// reported cancellation (per-job timeouts and client-gone cancellation
// in the serve layer). The run's partial results are meaningless; the
// machine should simply be released.
var ErrCanceled = errors.New("machine: run canceled")

// Stats aggregates machine-level activity for one run.
type Stats struct {
	Loads, Stores              uint64
	L1Hits, LLCHits, PMFetches uint64
	CLWBs, SFences             uint64
	OFences, DFences           uint64
	SpecBarriers               uint64
	DirtyWritebacksToPM        uint64 // IntelX86: LLC dirty evictions written to PM
	DroppedDirtyWritebacks     uint64 // HOPS/DPO/PMEM-Spec: dropped at eviction
	StaleFetches               uint64 // ground truth: PM fetch returned data older than arch
	Misspeculations            []core.Misspeculation
	NewStrands, JoinStrands    uint64
	PersistBarriers            uint64
	SQStallCycles              sim.Time
	PBufStallCycles            sim.Time
	BarrierStallCycles         sim.Time
	SpecOverflowPauses         uint64
	// Lock and speculation-register traffic (observability layer).
	LockAcquires, LockHandoffs uint64 // handoffs = acquisitions of a held lock
	TryLockFails               uint64
	SpecAssigns, SpecRevokes   uint64
}

// Machine is one simulated multicore system configured as one of the
// four evaluated designs. Cache blocks interleave across NumControllers
// PM controllers (one in the paper's configuration; see Config.
// Controllers for the §7 multi-controller study).
type Machine struct {
	cfg    Config
	kernel *sim.Kernel
	space  *mem.Space
	hier   *cache.Hierarchy
	ctrls  []*pmc.Controller
	wpqs   []*pmc.WPQ

	// PMEM-Spec state.
	// pathSets holds the persist-path fabric: one Paths when the NoC
	// preserves a core's store order across controllers (or with a
	// single controller), one per controller otherwise — independent
	// FIFOs whose interleaving is exactly the §7 hazard.
	pathSets   []*ppath.Paths
	specBufs   []*core.Buffer
	coreAdmit  []sim.Time // per-core horizon of persist-path admissions
	nextSpecID uint64

	// HOPS/DPO state.
	pbufs []*pmc.PersistBuffer
	bloom *pmc.Bloom
	// StrandWeaver state.
	sbufs []*pmc.StrandBuffer
	// hopsPending tracks, per block, the newest pending persist and its
	// core: HOPS's coherence-based inter-thread dependency tracking
	// (sticky-M). A conflicting access from another core inherits the
	// pending drain time as a dependency its next dfence must respect.
	// Block table over the PM region; the live flag and hopsLive* fields
	// reproduce the bounded tracking-table semantics exactly: past 8192
	// live entries, stale ones are dropped, and a dropped entry no longer
	// confers a dependency even to a core whose (lagging) clock still
	// precedes its admission.
	hopsPending   mem.BlockTable[hopsDep]
	hopsLiveList  []uint32
	hopsLiveCount int
	// hopsDepHorizon is each core's inherited dependency drain horizon;
	// nil unless HOPS.
	hopsDepHorizon []sim.Time

	// Pooled-event handler queues for the per-operation deferred actions
	// that used to allocate a closure each (see the types at the bottom
	// of this file). Entries are keyed by their event time; same-time
	// events fire in schedule order, so first-match pop in append order
	// reproduces the closure-per-event behavior exactly.
	persistApplies persistApplyQueue
	wbArrivals     wbArrivalQueue
	pmWrites       pmWriteQueue
	wbNotices      wbNoticeQueue

	threads []*Thread

	// misspecHandler is the OS interrupt line (osint registers here).
	misspecHandler func(core.Misspeculation)

	// drainObserver, when set, sees the completion of every durability-
	// relevant barrier (sfence, dfence, join-strand, spec-barrier): the
	// instants at which a core's outstanding persists have drained to the
	// persistent domain. The crash campaign aligns fault-injection points
	// to these boundaries.
	drainObserver func(core int, at sim.Time)

	// persistObserver, when set, runs after every mutation of the
	// persisted image — the instants at which the set of states a crash
	// could leave behind changes. The model checker snapshots the
	// durable variables at each notification to enumerate the crash
	// images of a schedule without ever scheduling a crash.
	persistObserver func()

	stats Stats

	// Observability: the metrics registry holds the machine's live
	// instruments (occupancy histograms); MetricsSnapshot adds the
	// component stats. tl is nil unless Config.Timeline;
	// barriersPerCore counts durability-barrier completions per core.
	reg             *metrics.Registry
	tl              *metrics.Timeline
	barriersPerCore []uint64
}

// New builds a machine for the given configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:             cfg,
		kernel:          sim.NewKernel(),
		space:           mem.NewSpace(cfg.MemBytes),
		hier:            cache.NewHierarchy(cfg.Cores, cfg.L1Bytes, cfg.L1Ways, cfg.LLCBytes, cfg.LLCWays, mem.DefaultBase, cfg.MemBytes),
		nextSpecID:      1,
		reg:             metrics.NewRegistry(),
		barriersPerCore: make([]uint64, cfg.Cores),
	}
	m.persistApplies.m = m
	m.wbArrivals.m = m
	m.pmWrites.m = m
	m.wbNotices.m = m
	if cfg.Timeline {
		m.tl = metrics.NewTimeline()
	}
	nctrl := cfg.NumControllers()
	for i := 0; i < nctrl; i++ {
		c := pmc.NewController(cfg.PMC)
		m.ctrls = append(m.ctrls, c)
		q := pmc.NewWPQ(c, cfg.WPQEntries, mem.DefaultBase, cfg.MemBytes)
		q.OccHist = m.reg.Histogram("wpq", "occupancy", occupancyBounds(cfg.WPQEntries))
		m.wpqs = append(m.wpqs, q)
	}

	switch cfg.Design {
	case PMEMSpec:
		m.coreAdmit = make([]sim.Time, cfg.Cores)
		onMisspec := func(ms core.Misspeculation) {
			m.stats.Misspeculations = append(m.stats.Misspeculations, ms)
			if m.misspecHandler != nil {
				m.misspecHandler(ms)
			}
		}
		onOverflow := func(until sim.Time) {
			m.stats.SpecOverflowPauses++
			m.kernel.PauseAll(until)
		}
		for i := 0; i < nctrl; i++ {
			b := core.NewBuffer(core.Config{
				Entries:    cfg.SpecBufEntries,
				Window:     cfg.Window(),
				FetchBased: cfg.FetchBasedDetection,
			})
			b.OnMisspec = onMisspec
			b.OnOverflow = onOverflow
			b.TL = m.tl
			b.Lane = metrics.LaneSpec + i
			m.specBufs = append(m.specBufs, b)
		}
		npaths := nctrl
		if cfg.OrderedNoC {
			// One fabric: a core's messages stay FIFO across
			// controllers — the §7 extension.
			npaths = 1
		}
		for i := 0; i < npaths; i++ {
			ps := ppath.New(m.kernel, cfg.Cores, cfg.Path, m.persistArrived)
			ps.OccHist = m.reg.Histogram("ppath", "outstanding", occupancyBounds(64))
			m.pathSets = append(m.pathSets, ps)
		}
	case Strand:
		onDrain := func(a mem.Addr, d []byte, at sim.Time) {
			m.space.PersistBytes(a, d)
			m.notifyPersist()
		}
		transfer := cfg.WritebackLatency + cfg.PBufDrainLag
		for i := 0; i < cfg.Cores; i++ {
			m.sbufs = append(m.sbufs, pmc.NewStrandBuffer(
				m.kernel, m.wpqs[0], i, cfg.PersistBufEntries, transfer, onDrain))
		}
	case HOPS, DPO:
		var ser *pmc.Serializer
		if cfg.Design == DPO {
			// DPO allows a single flush to the controller at a time,
			// each occupying the path for one transfer.
			ser = pmc.NewSerializer(cfg.WritebackLatency)
		}
		if cfg.Design == HOPS {
			m.bloom = pmc.NewBloom(cfg.BloomBuckets, cfg.BloomLookupCost)
			m.hopsPending = mem.NewBlockTable("machine: HOPS pending", mem.DefaultBase, cfg.MemBytes, hopsTables)
			m.hopsDepHorizon = make([]sim.Time, cfg.Cores)
		}
		onDrain := func(a mem.Addr, d []byte, at sim.Time) {
			m.space.PersistBytes(a, d)
			if m.bloom != nil {
				m.bloom.Remove(a)
			}
			m.notifyPersist()
		}
		transfer := cfg.WritebackLatency + cfg.PBufDrainLag
		for i := 0; i < cfg.Cores; i++ {
			m.pbufs = append(m.pbufs, pmc.NewPersistBuffer(
				m.kernel, m.wpqs[0], i, cfg.PersistBufEntries, transfer, ser, onDrain))
		}
	}
	if cfg.Cancel != nil {
		poll := cfg.CancelPollCycles
		if poll <= 0 {
			poll = DefaultCancelPoll
		}
		// A self-re-registering kernel watch: it runs on the kernel
		// goroutine, so Stop is race-free, and a watch never perturbs
		// dispatch (an event could reorder threads at a clock tie), so
		// uncancelled results are unchanged.
		next := poll
		var watch func()
		watch = func() {
			if cfg.Cancel() {
				m.kernel.Stop(ErrCanceled)
				return
			}
			if !m.kernel.AnyLive() {
				return // simulation over
			}
			next += poll
			m.kernel.Watch(next, watch)
		}
		m.kernel.Watch(poll, watch)
	}
	return m, nil
}

// hopsTables recycles the HOPS pending tables' arrays between machines,
// one per P.
var hopsTables = mem.NewFreeList[uint64, []hopsDep](1)

// hopsDep records the newest pending persist to a block. live marks the
// slot as tracked; inList dedups hopsLiveList appends (an entry can die
// on a touch and come back on a later store while its index still sits
// in the list).
type hopsDep struct {
	admit  sim.Time
	core   int32
	live   bool
	inList bool
}

// hopsTouch implements HOPS's inter-thread dependency tracking: core
// touching blk (load or store) at `now` inherits any other core's
// pending persist to the block as a dependency; a store additionally
// publishes its own pending admission. An entry whose admission has
// passed is simply no longer pending (no eager pruning needed with the
// flat table).
func (m *Machine) hopsTouch(core int, blk mem.Addr, now sim.Time, storeAdmit sim.Time, isStore bool) {
	if m.hopsDepHorizon == nil {
		return
	}
	i := m.hopsPending.Block(blk)
	d := m.hopsPending.Ref(i)
	if d.live {
		if d.admit <= now {
			d.live = false
			m.hopsLiveCount--
		} else if int(d.core) != core && d.admit > m.hopsDepHorizon[core] {
			m.hopsDepHorizon[core] = d.admit
		}
	}
	if isStore {
		if !d.live {
			d.live = true
			m.hopsLiveCount++
			if !d.inList {
				d.inList = true
				m.hopsLiveList = append(m.hopsLiveList, uint32(i))
			}
		}
		d.core, d.admit = int32(core), storeAdmit
		if m.hopsLiveCount > 8192 {
			kept := m.hopsLiveList[:0]
			for _, bi := range m.hopsLiveList {
				e := m.hopsPending.Ref(uint64(bi))
				switch {
				case !e.live:
					e.inList = false
				case e.admit <= now:
					e.live, e.inList = false, false
				default:
					kept = append(kept, bi)
				}
			}
			m.hopsLiveList = kept
			m.hopsLiveCount = len(kept)
		}
	}
}

// ctrlIndex returns which PM controller owns a's cache block (block
// interleaving across controllers).
func (m *Machine) ctrlIndex(a mem.Addr) int {
	n := len(m.ctrls)
	if n == 1 {
		return 0
	}
	return int((uint64(a) >> 6) % uint64(n))
}

// pathsFor returns the persist-path fabric carrying stores to a's
// controller: the single ordered fabric, or the controller's own.
func (m *Machine) pathsFor(a mem.Addr) *ppath.Paths {
	if len(m.pathSets) == 1 {
		return m.pathSets[0]
	}
	return m.pathSets[m.ctrlIndex(a)]
}

// persistArrived handles a persist-path message reaching its PM
// controller (event context, at msg.Arrive): the write is admitted to
// that controller's WPQ (possibly delayed by back-pressure); at
// admission it becomes durable and the speculation buffer observes it.
func (m *Machine) persistArrived(msg ppath.Message) {
	idx := m.ctrlIndex(msg.Addr)
	admit, mediaDone := m.wpqs[idx].Accept(msg.Arrive, msg.Addr)
	if admit > m.coreAdmit[msg.Core] {
		m.coreAdmit[msg.Core] = admit
	}
	if admit > msg.Arrive {
		// Back-pressured: the durable application happens at admission.
		m.persistApplies.entries = append(m.persistApplies.entries,
			pendingPersist{admit: admit, mediaDone: mediaDone, msg: msg})
		m.kernel.ScheduleHandler(admit, &m.persistApplies, uint64(admit))
		return
	}
	m.applyPersist(admit, mediaDone, &msg)
}

// applyPersist makes an admitted persist-path store durable and lets the
// owning controller's speculation buffer observe it.
func (m *Machine) applyPersist(admit, mediaDone sim.Time, msg *ppath.Message) {
	m.space.PersistBytes(msg.Addr, msg.Payload())
	m.notifyPersist()
	m.specBufs[m.ctrlIndex(msg.Addr)].OnPersist(admit, msg.Addr, msg.SpecID, mediaDone)
}

// Accessors.

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Kernel returns the simulation kernel (for scheduling crash events or
// custom instrumentation).
func (m *Machine) Kernel() *sim.Kernel { return m.kernel }

// Space returns the simulated PM region.
func (m *Machine) Space() *mem.Space { return m.space }

// Release returns the machine's large recyclable buffers (the two PM
// images, every cache of the hierarchy and the per-block tables: cache
// sharers, WPQ coalescing, HOPS pending) to their free lists. Call it
// only after the run's results have been extracted; the machine must not
// be used afterwards. Release is idempotent: a second call is a no-op,
// so no buffer is ever handed to two later machines.
func (m *Machine) Release() {
	if m.space == nil {
		return // already released
	}
	m.space.Release()
	m.hier.Release()
	for _, q := range m.wpqs {
		q.Release()
	}
	m.hopsPending.Release()
	m.space, m.hier = nil, nil
}

// Hierarchy returns the cache hierarchy (tests, diagnostics).
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// SpecBuffer returns controller 0's speculation buffer (nil unless
// PMEM-Spec).
func (m *Machine) SpecBuffer() *core.Buffer {
	if len(m.specBufs) == 0 {
		return nil
	}
	return m.specBufs[0]
}

// SpecBuffers returns every controller's speculation buffer.
func (m *Machine) SpecBuffers() []*core.Buffer { return m.specBufs }

// Bloom returns the HOPS bloom filter (nil otherwise).
func (m *Machine) Bloom() *pmc.Bloom { return m.bloom }

// Controller returns PM controller 0.
func (m *Machine) Controller() *pmc.Controller { return m.ctrls[0] }

// WPQ returns controller 0's write-pending queue.
func (m *Machine) WPQ() *pmc.WPQ { return m.wpqs[0] }

// Paths returns the first persist-path fabric (nil unless PMEM-Spec).
func (m *Machine) Paths() *ppath.Paths {
	if len(m.pathSets) == 0 {
		return nil
	}
	return m.pathSets[0]
}

// Stats returns a snapshot of the machine statistics.
func (m *Machine) Stats() Stats { return m.stats }

// SetMisspecHandler registers the OS interrupt handler for
// misspeculation detection events.
func (m *Machine) SetMisspecHandler(h func(core.Misspeculation)) { m.misspecHandler = h }

// SetDrainObserver registers f to observe every durability-barrier
// completion (core, thread-local time). Instrumented discovery runs use
// it to collect persist boundaries; nil disables.
func (m *Machine) SetDrainObserver(f func(core int, at sim.Time)) { m.drainObserver = f }

// notifyDrain reports a completed durability barrier to the observer and
// counts it against the core's barrier tally.
func (m *Machine) notifyDrain(core int, at sim.Time) {
	m.barriersPerCore[core]++
	if m.drainObserver != nil {
		m.drainObserver(core, at)
	}
}

// SetPersistObserver registers f to run immediately after every write to
// the persisted image (persist-buffer drains, persist-path applies,
// eviction writebacks, CLWB flushes, and the harness's setup sync).
// Between notifications the persisted image is unchanged, so the
// sequence of snapshots taken inside f enumerates every crash image the
// run can produce under ADR semantics. nil disables.
func (m *Machine) SetPersistObserver(f func()) { m.persistObserver = f }

// notifyPersist reports a persisted-image mutation to the observer.
func (m *Machine) notifyPersist() {
	if m.persistObserver != nil {
		m.persistObserver()
	}
}

// SetAdmitObserver registers f on every PM controller's WPQ to observe
// write admissions — the ADR durability instants. Crash points placed
// just before/at/after an admission toggle whether that write survives,
// which is the sharpest boundary a crash campaign can probe.
func (m *Machine) SetAdmitObserver(f func(admit sim.Time, blk mem.Addr)) {
	for _, q := range m.wpqs {
		q.OnAdmit = f
	}
}

// Spawn creates a simulated thread pinned to the next free core. It
// panics if more threads than cores are spawned (the paper's runs are
// one thread per core).
func (m *Machine) Spawn(name string, body func(*Thread)) *Thread {
	if len(m.threads) >= m.cfg.Cores {
		panic(fmt.Sprintf("machine: spawning thread %d on a %d-core machine", len(m.threads)+1, m.cfg.Cores))
	}
	t := &Thread{m: m, coreID: len(m.threads)}
	t.sq = newStoreQueue(m.cfg.StoreQueueEntries)
	t.sim = m.kernel.Spawn(name, 0, func(st *sim.Thread) {
		body(t)
	})
	m.threads = append(m.threads, t)
	return t
}

// Threads returns the spawned threads in core order.
func (m *Machine) Threads() []*Thread { return m.threads }

// Run executes the simulation to completion (or crash/stop).
func (m *Machine) Run() error { return m.kernel.Run() }

// ScheduleCrash injects a power failure at the given time: the kernel
// stops, volatile state (caches, store queues, in-flight persists) is
// discarded, and Run returns ErrCrashed. Writes admitted to the WPQ
// before `at` are already applied to the persisted image — ADR
// semantics.
func (m *Machine) ScheduleCrash(at sim.Time) {
	m.kernel.Schedule(at, func() {
		m.hier.FlushAll()
		m.kernel.Stop(ErrCrashed)
	})
}

// SyncPersistedToArch makes the persisted image identical to the
// coherent one, modeling a durably completed initialization phase: the
// experiment harness invokes it between a workload's (unmeasured) setup
// and the measured kernel, so crash-recovery checks start from a durable
// baseline regardless of how lazily the design would have persisted the
// setup stores. It takes no simulated time. The copy is in place and
// covers only the written extents, so its cost tracks the bytes written.
func (m *Machine) SyncPersistedToArch() {
	m.space.PM.CopyFrom(m.space.Arch)
	m.notifyPersist()
}

// MaxThreadClock returns the largest thread clock — the makespan used
// as the throughput denominator.
func (m *Machine) MaxThreadClock() sim.Time {
	var max sim.Time
	for _, t := range m.threads {
		if c := t.sim.Clock(); c > max {
			max = c
		}
	}
	return max
}

// handleLLCEviction applies the design's dirty-eviction policy to a
// block displaced from the LLC at thread-time `now`.
func (m *Machine) handleLLCEviction(now sim.Time, ev cache.Evicted) {
	if !ev.Dirty {
		return
	}
	switch m.cfg.Design {
	case IntelX86, Strand:
		// Dirty eviction writes back to PM (StrandWeaver explicitly
		// writes dirty lines back before eviction, §3.1): snapshot the
		// coherent block now; it becomes durable at WPQ admission.
		m.stats.DirtyWritebacksToPM++
		at := now + m.cfg.WritebackLatency
		bw := blockWrite{at: at, addr: ev.Addr}
		bw.snap = m.space.Arch.ReadBlock(ev.Addr)
		m.wbArrivals.entries = append(m.wbArrivals.entries, bw)
		m.kernel.ScheduleHandler(at, &m.wbArrivals, uint64(at))
	case PMEMSpec:
		// Data dropped silently, but the owning controller receives the
		// WriteBack notification that arms load-misspeculation
		// monitoring (§5.1.4).
		m.stats.DroppedDirtyWritebacks++
		at := now + m.cfg.WritebackLatency
		m.wbNotices.entries = append(m.wbNotices.entries, wbNotice{at: at, addr: ev.Addr})
		m.kernel.ScheduleHandler(at, &m.wbNotices, uint64(at))
	default: // HOPS, DPO
		// Dropped silently; the persist buffers carry persistence.
		m.stats.DroppedDirtyWritebacks++
	}
}

// pendingPersist is a persist-path store whose WPQ admission was pushed
// past its arrival by back-pressure; applied by persistApplyQueue at the
// admission instant.
type pendingPersist struct {
	admit     sim.Time
	mediaDone sim.Time
	msg       ppath.Message
}

// persistApplyQueue applies back-pressured persist-path stores at their
// admission time (sim.Handler; arg echoes the admission).
type persistApplyQueue struct {
	m       *Machine
	entries []pendingPersist
}

func (q *persistApplyQueue) OnEvent(at sim.Time, arg uint64) {
	admit := sim.Time(arg)
	for i := range q.entries {
		if q.entries[i].admit == admit {
			e := q.entries[i]
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			q.m.applyPersist(e.admit, e.mediaDone, &e.msg)
			return
		}
	}
	panic("machine: persist apply event with no matching entry")
}

// blockWrite is one dirty block on its way to PM: an eviction writeback
// travelling to the controller (wbArrivalQueue, keyed by arrival) or an
// admitted write awaiting its durability instant (pmWriteQueue, keyed by
// admission). The snapshot is taken when the block leaves the coherent
// domain.
type blockWrite struct {
	at   sim.Time
	addr mem.Addr
	snap [mem.BlockSize]byte
}

// wbArrivalQueue lands eviction writebacks at the PM controller: the
// write is admitted to the owning WPQ and the persisted image updated at
// the admission instant.
type wbArrivalQueue struct {
	m       *Machine
	entries []blockWrite
}

func (q *wbArrivalQueue) OnEvent(at sim.Time, arg uint64) {
	key := sim.Time(arg)
	m := q.m
	for i := range q.entries {
		if q.entries[i].at == key {
			e := q.entries[i]
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			admit, _ := m.wpqs[m.ctrlIndex(e.addr)].Accept(e.at, e.addr)
			if admit > e.at {
				e.at = admit
				m.pmWrites.entries = append(m.pmWrites.entries, e)
				m.kernel.ScheduleHandler(admit, &m.pmWrites, uint64(admit))
			} else {
				m.space.PM.WriteBlock(e.addr, e.snap)
				m.notifyPersist()
			}
			return
		}
	}
	panic("machine: writeback arrival event with no matching entry")
}

// pmWriteQueue applies admitted block writes to the persisted image at
// their admission instant (eviction writebacks under back-pressure, and
// CLWB flushes).
type pmWriteQueue struct {
	m       *Machine
	entries []blockWrite
}

func (q *pmWriteQueue) OnEvent(at sim.Time, arg uint64) {
	key := sim.Time(arg)
	for i := range q.entries {
		if q.entries[i].at == key {
			e := q.entries[i]
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			q.m.space.PM.WriteBlock(e.addr, e.snap)
			q.m.notifyPersist()
			return
		}
	}
	panic("machine: PM write event with no matching entry")
}

// wbNotice is a PMEM-Spec WriteBack notification in flight to its
// controller.
type wbNotice struct {
	at   sim.Time
	addr mem.Addr
}

// wbNoticeQueue delivers WriteBack notifications to the owning
// controller's speculation buffer.
type wbNoticeQueue struct {
	m       *Machine
	entries []wbNotice
}

func (q *wbNoticeQueue) OnEvent(at sim.Time, arg uint64) {
	key := sim.Time(arg)
	for i := range q.entries {
		if q.entries[i].at == key {
			e := q.entries[i]
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			q.m.specBufs[q.m.ctrlIndex(e.addr)].OnWriteBack(e.at, e.addr)
			return
		}
	}
	panic("machine: writeback notice event with no matching entry")
}
