// Package litmus is the persist-order litmus vocabulary: a corpus of
// small store/flush/fence/lock/strand/speculation patterns, each with a
// hand-derived per-design ORDERED/UNORDERED truth table for the claim
// "Data's final value persists before Commit's final value"; the fold
// of a pattern through internal/analysis/dataflow's order lattice (the
// rule the persistorder analyzer applies); and Program, which runs a
// pattern as a real workload on the simulator.
//
// The model checker (internal/mc) adjudicates the static verdicts
// against the simulator's crash images with Pattern.Classify:
//
//   - Every statically ORDERED claim must survive every crash image: no
//     image may hold the commit store's final value while the data
//     store's final value is missing. One counterexample refutes the
//     lattice (or finds a simulator bug) — CI fails.
//   - Every statically UNORDERED claim is falsifiable: some crash image
//     may witness commit-without-data. Witnesses validate the lattice's
//     refusal; their absence is recorded, not failed.
//
// The same lowering tables drive both sides (dataflow.LowerModelOp/
// LowerISAOp), so a divergence is always a real disagreement between
// the lattice's ordering rules and the simulated hardware, never a
// transcription gap between two copies of the semantics.
package litmus

import (
	"fmt"
	"slices"

	"pmemspec/internal/analysis/dataflow"
	"pmemspec/internal/fatomic"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/sim"
	"pmemspec/internal/workload"
)

// OpKind is one interpreted litmus operation.
type OpKind uint8

const (
	// OpStore writes the next value of Var (raw StoreU64).
	OpStore OpKind = iota
	// OpFlush is persist.Model.Flush of Var's 8-byte slot.
	OpFlush
	// OpCLWB is Thread.CLWB of Var's cache block.
	OpCLWB
	// Model barriers (design-generic).
	OpOrderBarrier
	OpNextUpdate
	OpDurableBarrier
	// Raw ISA barriers.
	OpSFence
	OpOFence
	OpDFence
	OpPersistBarrier
	OpNewStrand
	OpJoinStrand
	OpSpecBarrier
	// Machine lock operations on the program's mutex.
	OpLock
	OpUnlock
)

// Op is one step of a litmus program. Var is used by OpStore, OpFlush
// and OpCLWB only.
type Op struct {
	Kind OpKind
	Var  int
}

// Convenience constructors keep corpus.go readable.
func St(v int) Op   { return Op{Kind: OpStore, Var: v} }
func Fl(v int) Op   { return Op{Kind: OpFlush, Var: v} }
func Clwb(v int) Op { return Op{Kind: OpCLWB, Var: v} }
func Bar(k OpKind) Op {
	return Op{Kind: k, Var: -1}
}

// Data and Commit are the fixed claim variables: every pattern asserts
// "Data's final value persists before Commit's final value".
const (
	Data   = 0
	Commit = 1
)

// Pattern is one litmus program plus its expected static verdicts.
type Pattern struct {
	// Name identifies the pattern in reports and -pattern filters.
	Name string
	// Ops is the program body. The runtime appends a verification tail
	// (flush the commit variable and drain, then flush the rest and
	// drain again) so the no-crash run always ends durable — and so the
	// commit variable is durable strictly before the data variable,
	// giving UNORDERED claims a reachable witness window.
	Ops []Op
	// Threads, when non-nil, makes the pattern multi-threaded: thread i
	// interprets Threads[i] and Ops must be nil. The claim is unchanged
	// ("Data's final value persists before Commit's final value"), but
	// its verdict now quantifies over every feasible interleaving, which
	// the model checker (internal/mc) enumerates. Each variable must be
	// stored by at most one thread so the final value is
	// schedule-independent.
	Threads [][]Op
	// SameLine lays Data and Commit in one 64-byte block (offsets 0 and
	// 8) instead of separate blocks: the IntelX86 line-coalescing rule.
	SameLine bool
	// Expect is the hand-derived ORDERED truth table in canonical
	// design order (IntelX86, DPO, HOPS, StrandWeaver, PMEM-Spec);
	// TestCorpusExpectations pins the lattice fold to it.
	Expect [5]bool
}

// Expected is the pattern's hand-derived verdict on od: its column of
// Expect.
func (p Pattern) Expected(od dataflow.OrderDesign) bool {
	return p.Expect[slices.Index(dataflow.OrderDesigns(), od)]
}

// MT reports whether the pattern is multi-threaded.
func (p Pattern) MT() bool { return len(p.Threads) > 0 }

// NThreads returns the number of interpreter threads the pattern needs.
func (p Pattern) NThreads() int {
	if !p.MT() {
		return 1
	}
	return len(p.Threads)
}

// ThreadOps returns thread tid's program.
func (p Pattern) ThreadOps(tid int) []Op {
	if !p.MT() {
		if tid == 0 {
			return p.Ops
		}
		return nil
	}
	return p.Threads[tid]
}

// forEachOp visits every op of every thread (single-threaded patterns:
// just Ops).
func (p Pattern) forEachOp(f func(tid int, op Op)) {
	for tid := 0; tid < p.NThreads(); tid++ {
		for _, op := range p.ThreadOps(tid) {
			f(tid, op)
		}
	}
}

// NumVars returns how many variables the pattern touches (≥ 2: the
// claim pair always exists).
func (p Pattern) NumVars() int {
	n := 2
	p.forEachOp(func(_ int, op Op) {
		if op.Var >= n {
			n = op.Var + 1
		}
	})
	return n
}

// storeCounts returns, per variable, how many OpStore ops target it.
func (p Pattern) storeCounts() []int {
	counts := make([]int, p.NumVars())
	p.forEachOp(func(_ int, op Op) {
		if op.Kind == OpStore {
			counts[op.Var]++
		}
	})
	return counts
}

// storeOwner returns the single thread that stores variable v, or -1 if
// no thread does. Multi-threaded corpus patterns keep one owner per
// variable (asserted in tests) so FinalValue is schedule-independent.
func (p Pattern) storeOwner(v int) int {
	owner := -1
	p.forEachOp(func(tid int, op Op) {
		if op.Kind == OpStore && op.Var == v {
			owner = tid
		}
	})
	return owner
}

// storeValue is the value the k-th (0-based) store to variable v
// writes: distinct, nonzero, deterministic.
func storeValue(v, k int) uint64 { return uint64(v*8+k) + 1 }

// FinalValue is the value variable v holds after a complete run.
func (p Pattern) FinalValue(v int) uint64 { return finalValue(p.storeCounts(), v) }

// finalValue is FinalValue given the pattern's store counts: the value
// of the last store to v, or zero if nothing stores v.
func finalValue(counts []int, v int) uint64 {
	if counts[v] == 0 {
		return 0
	}
	return storeValue(v, counts[v]-1)
}

// Classify judges one image of the pattern's variables (vec[v] is
// variable v's value, as Program.Vars reads it). Every variable must
// hold zero or one of its written values; anything else is a torn
// write, returned as an error. commitWithoutData reports an image that
// holds Commit's final value without Data's final value: it refutes an
// ORDERED verdict and witnesses an UNORDERED one.
func (p Pattern) Classify(vec []uint64) (commitWithoutData bool, err error) {
	counts := p.storeCounts()
	for v, got := range vec {
		legal := got == 0
		for k := 0; k < counts[v] && !legal; k++ {
			legal = got == storeValue(v, k)
		}
		if !legal {
			return false, fmt.Errorf("var %d holds %d, never written", v, got)
		}
	}
	commitFinal := finalValue(counts, Commit)
	return commitFinal != 0 && vec[Commit] == commitFinal && vec[Data] != finalValue(counts, Data), nil
}

// LowerKind maps one litmus op kind to its order-lattice event on a
// design. OpStore/OpFlush/OpCLWB are handled by the callers (they need
// the variable); everything else goes through the shared tables.
func LowerKind(k OpKind, d dataflow.OrderDesign) dataflow.OrderEvent {
	switch k {
	case OpOrderBarrier:
		return dataflow.LowerModelOp(dataflow.MOrderBarrier, d)
	case OpNextUpdate:
		return dataflow.LowerModelOp(dataflow.MNextUpdate, d)
	case OpDurableBarrier:
		return dataflow.LowerModelOp(dataflow.MDurableBarrier, d)
	case OpLock:
		return dataflow.LowerModelOp(dataflow.MLock, d)
	case OpUnlock:
		return dataflow.LowerModelOp(dataflow.MUnlock, d)
	case OpSFence:
		return dataflow.LowerISAOp(dataflow.ISFence, d)
	case OpOFence:
		return dataflow.LowerISAOp(dataflow.IOFence, d)
	case OpDFence:
		return dataflow.LowerISAOp(dataflow.IDFence, d)
	case OpPersistBarrier:
		return dataflow.LowerISAOp(dataflow.IPersistBarrier, d)
	case OpNewStrand:
		return dataflow.LowerISAOp(dataflow.INewStrand, d)
	case OpJoinStrand:
		return dataflow.LowerISAOp(dataflow.IJoinStrand, d)
	case OpSpecBarrier:
		return dataflow.LowerISAOp(dataflow.ISpecBarrier, d)
	}
	return dataflow.OEUnknown
}

// SameBlock reports whether two variables share a cache block under
// the pattern's layout; the model checker's independence relation uses
// it (two ops on the same block never commute).
func (p Pattern) SameBlock(a, b int) bool {
	if a == b {
		return true
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return p.SameLine && lo == Data && hi == Commit
}

// StaticOrdered folds the pattern through the order lattice of one
// design and returns the verdict for the claim "Data persists before
// Commit" — the same rule the persistorder analyzer applies at a
// commit-marker store.
func StaticOrdered(p Pattern, d dataflow.OrderDesign) bool {
	if p.MT() {
		return staticOrderedMT(p, d)
	}
	lastCommit := -1
	for i, op := range p.Ops {
		if op.Kind == OpStore && op.Var == Commit {
			lastCommit = i
		}
	}
	s := dataflow.NewOrderState()
	for i, op := range p.Ops {
		if i == lastCommit {
			if s.Ordered(Data) {
				return true
			}
			n, issued := s.Node(Data)
			if !issued {
				return true // vacuous: the data store never issued
			}
			return n.S != dataflow.ONPoisoned &&
				dataflow.LineCoalesce(d) && p.SameBlock(Data, Commit)
		}
		switch op.Kind {
		case OpStore:
			s = s.WithStoreNode(op.Var, d)
		case OpFlush:
			if dataflow.LowerModelOp(dataflow.MFlush, d) == dataflow.OEFlush {
				v := op.Var
				s = s.WithFlushEvent(func(id int) dataflow.OrderCoverage {
					if id == v {
						return dataflow.OCoverExact
					}
					return dataflow.OCoverNone
				})
			}
		case OpCLWB:
			if dataflow.LowerISAOp(dataflow.ICLWB, d) == dataflow.OEFlush {
				v := op.Var
				s = s.WithFlushEvent(func(id int) dataflow.OrderCoverage {
					if p.SameBlock(id, v) {
						return dataflow.OCoverExact
					}
					return dataflow.OCoverNone
				})
			}
		default:
			s = s.WithOrderEvent(LowerKind(op.Kind, d))
		}
	}
	// No commit store: nothing to claim.
	return true
}

// Program is one executable litmus run: a pattern implementing
// workload.Workload so the crash harness can run, crash, recover and
// verify it. Each run uses a fresh instance (the harness may run many
// in parallel).
type Program struct {
	P Pattern

	// Hook, when non-nil, runs on the interpreting thread before each
	// pattern op — opIdx counts through ThreadOps(tid), and one final
	// call with opIdx == len(ThreadOps(tid)) marks the stream done. The
	// model checker parks threads here (mark + Yield) to turn every op
	// boundary into a scheduling choice point. The verification tail is
	// not hooked: it is harness machinery, not a scheduling subject.
	Hook func(t *machine.Thread, tid, opIdx int)

	base mem.Addr
	lock sim.Mutex
	join *sim.Barrier // multi-threaded rendezvous before the tail
}

// NewProgram instantiates a pattern.
func NewProgram(p Pattern) *Program { return &Program{P: p} }

// Name implements workload.Workload.
func (pr *Program) Name() string { return "litmus-" + pr.P.Name }

// LogFree implements workload.LogFree: a litmus program orders its
// stores with the design's barriers, never with a failure-atomic
// section.
func (pr *Program) LogFree() {}

// Description implements workload.Workload.
func (pr *Program) Description() string {
	return fmt.Sprintf("litmus pattern %s (%d ops)", pr.P.Name, len(pr.P.Ops))
}

// MemBytes implements workload.Workload.
func (pr *Program) MemBytes(p workload.Params) uint64 {
	return fatomic.HeapReserve(p.Threads) + uint64(pr.P.NumVars()+2)*mem.BlockSize + 1<<20
}

// addr returns variable v's slot.
func (pr *Program) addr(v int) mem.Addr {
	if pr.P.SameLine && v == Commit {
		return pr.base + 8
	}
	return pr.base + mem.Addr(v)*mem.BlockSize
}

// Setup implements workload.Workload: zero every slot durably, so a
// post-crash read of a never-persisted store is unambiguously zero.
func (pr *Program) Setup(e *workload.Env, t *machine.Thread) {
	n := pr.P.NumVars()
	pr.base = e.Heap.AllocBlock(uint64(n) * mem.BlockSize)
	if pr.P.MT() {
		pr.join = sim.NewBarrier(e.P.Threads)
	}
	m := e.RT.Model()
	for v := 0; v < n; v++ {
		t.StoreU64(pr.addr(v), 0)
		m.Flush(t, pr.addr(v), 8)
	}
	m.DurableBarrier(t)
}

// VarAddr returns variable v's persistent slot (valid after Setup).
func (pr *Program) VarAddr(v int) mem.Addr { return pr.addr(v) }

// Vars reads every pattern variable from img: the vector
// Pattern.Classify judges.
func (pr *Program) Vars(img *mem.Image) []uint64 {
	vec := make([]uint64, pr.P.NumVars())
	for v := range vec {
		vec[v] = img.ReadU64(pr.addr(v))
	}
	return vec
}

// Mutex returns the program's lock, so a controlled scheduler can
// consult its holder before releasing a thread whose next op is OpLock.
func (pr *Program) Mutex() *sim.Mutex { return &pr.lock }

// Run implements workload.Workload: interpret this thread's ops, then
// flush every variable in reverse order and drain — the tail persists
// the commit variable first, so UNORDERED claims get their witness
// window. Multi-threaded patterns rendezvous on the join barrier first
// and leave the tail to thread 0; per-variable store counters stay
// correct because each variable has a single storing thread.
func (pr *Program) Run(e *workload.Env, t *machine.Thread, tid int) {
	m := e.RT.Model()
	k := make([]int, pr.P.NumVars())
	locked := 0
	ops := pr.P.ThreadOps(tid)
	for i, op := range ops {
		if pr.Hook != nil {
			pr.Hook(t, tid, i)
		}
		switch op.Kind {
		case OpStore:
			t.StoreU64(pr.addr(op.Var), storeValue(op.Var, k[op.Var]))
			k[op.Var]++
		case OpFlush:
			m.Flush(t, pr.addr(op.Var), 8)
		case OpCLWB:
			t.CLWB(pr.addr(op.Var))
		case OpOrderBarrier:
			m.OrderBarrier(t)
		case OpNextUpdate:
			m.NextUpdate(t)
		case OpDurableBarrier:
			m.DurableBarrier(t)
		case OpSFence:
			t.SFence()
		case OpOFence:
			t.OFence()
		case OpDFence:
			t.DFence()
		case OpPersistBarrier:
			t.PersistBarrier()
		case OpNewStrand:
			t.NewStrand()
		case OpJoinStrand:
			t.JoinStrand()
		case OpSpecBarrier:
			t.SpecBarrier()
		case OpLock:
			t.Lock(&pr.lock)
			locked++
		case OpUnlock:
			t.Unlock(&pr.lock)
			locked--
		}
	}
	for ; locked > 0; locked-- {
		t.Unlock(&pr.lock)
	}
	if pr.Hook != nil {
		pr.Hook(t, tid, len(ops))
	}
	if pr.P.MT() {
		pr.join.Wait(t.Sim())
		if tid != 0 {
			return
		}
	}
	// Adversarial tail: persist the commit variable first and drain —
	// the drain completion is a crash boundary at which commit is
	// durable and an unordered data store still is not, so UNORDERED
	// claims get a reachable witness window. ORDERED claims are immune
	// by construction: whatever made them ordered (flush+fence already
	// executed, a durable barrier, hardware per-store ordering, or
	// same-line writeback atomicity) holds regardless of the tail's
	// flush order.
	m.Flush(t, pr.addr(Commit), 8)
	m.DurableBarrier(t)
	for v := pr.P.NumVars() - 1; v >= 0; v-- {
		if v != Commit {
			m.Flush(t, pr.addr(v), 8)
		}
	}
	m.DurableBarrier(t)
}

// Verify implements workload.Workload: a torn value on any image
// (recovered after a crash, or coherent after a full run) fails it. The
// ordering claim needs the design's verdict, so the model checker
// judges it from the image chain instead.
func (pr *Program) Verify(img *mem.Image, completedOps uint64) error {
	if _, err := pr.P.Classify(pr.Vars(img)); err != nil {
		return fmt.Errorf("litmus %s: %w", pr.P.Name, err)
	}
	return nil
}
