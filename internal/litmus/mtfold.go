package litmus

import "pmemspec/internal/analysis/dataflow"

// Multi-threaded persist-order fold.
//
// The single-threaded fold walks one op sequence through
// dataflow.OrderState. Across threads that state splits: flushes and
// fences act on the issuing core's persist machinery, so each thread
// carries its own node map and epoch, and a promotion must say *whose*
// later stores it orders:
//
//   - global: the store is durable before any store issued anywhere
//     after the promoting barrier completes. All OEDurable promotions
//     are global (they model synchronous drains — DPO sfence/dfence/
//     lock/unlock, HOPS dfence, StrandWeaver join-strand, PMEM-Spec
//     spec-barrier, and the model-level durable barrier), and OEFence
//     is global on IntelX86 only, whose sfence waits for CLWB
//     admission into the ADR-safe WPQ.
//   - local: ordered only relative to later stores of one core. DPO's
//     born-Ordered state (a per-core in-order persist buffer), HOPS
//     ofence and StrandWeaver persist-barrier promotions (asynchronous
//     per-core epoch ordering) are local.
//
// The claim "Data's final value persists before Commit's final value"
// then holds at the final commit store iff every data store has issued
// and Data is globally ordered on some thread, locally ordered on the
// committing thread itself, or covered by IntelX86 same-line writeback
// atomicity. ORDERED for the pattern = the claim holds in *every*
// feasible interleaving (lock critical sections exclude each other);
// the fold enumerates them exhaustively — patterns are small by
// construction.

// mtNode is one tracked store's order state on one thread: the
// NodeOrder lattice point plus the global/local reach of a promotion.
type mtNode struct {
	s      dataflow.OrderPS
	epoch  int32
	global bool
}

// mtThread is one thread's fold state.
type mtThread struct {
	nodes map[int]mtNode
	epoch int32
}

// mtState is the whole interleaving-exploration state.
type mtState struct {
	pc     []int // next op index per thread
	issued []int // stores issued per variable
	holder int   // lock-holding thread, or -1
	th     []mtThread
}

func newMTState(nt, nvars int) *mtState {
	st := &mtState{
		pc:     make([]int, nt),
		issued: make([]int, nvars),
		holder: -1,
		th:     make([]mtThread, nt),
	}
	for i := range st.th {
		st.th[i] = mtThread{nodes: map[int]mtNode{}}
	}
	return st
}

func (st *mtState) clone() *mtState {
	out := &mtState{
		pc:     append([]int(nil), st.pc...),
		issued: append([]int(nil), st.issued...),
		holder: st.holder,
		th:     make([]mtThread, len(st.th)),
	}
	for i, t := range st.th {
		nodes := make(map[int]mtNode, len(t.nodes))
		for v, n := range t.nodes {
			nodes[v] = n
		}
		out.th[i] = mtThread{nodes: nodes, epoch: t.epoch}
	}
	return out
}

// mtEnabled reports whether thread t can take its next op: it has ops
// left, and taking a lock is only possible when the lock is free (the
// simulated mutex is non-reentrant, so a holder re-locking is treated
// as disabled rather than explored into a deadlock).
func mtEnabled(p Pattern, st *mtState, t int) bool {
	ops := p.ThreadOps(t)
	if st.pc[t] >= len(ops) {
		return false
	}
	if ops[st.pc[t]].Kind == OpLock {
		return st.holder == -1
	}
	return true
}

// mtApplyStore mirrors OrderState.WithStoreNode across threads: the
// issuing thread (re)births the node in the design's born state (born
// reach is always local — DPO's in-order buffer is per-core), and every
// other thread's view of the variable is invalidated — the new write is
// what must now be ordered.
func mtApplyStore(st *mtState, t, v int, d dataflow.OrderDesign) {
	for i := range st.th {
		if i != t {
			delete(st.th[i].nodes, v)
		}
	}
	st.th[t].nodes[v] = mtNode{s: dataflow.BornState(d), epoch: st.th[t].epoch}
	st.issued[v]++
}

// mtApplyFlush mirrors OrderState.WithFlushEvent for a flush by thread
// t covering exactly the variables for which covered returns true. The
// coherence protocol makes cross-thread flushes effective (the flushing
// core pulls the dirty line), so an issued-but-untracked variable is
// inserted into the flusher's map at the Flushed point.
func mtApplyFlush(p Pattern, st *mtState, t int, covered func(v int) bool) {
	th := &st.th[t]
	for v := 0; v < len(st.issued); v++ {
		if !covered(v) || st.issued[v] == 0 {
			continue
		}
		n, ok := th.nodes[v]
		if !ok {
			th.nodes[v] = mtNode{s: dataflow.ONFlushed, epoch: th.epoch}
			continue
		}
		if n.s == dataflow.ONDirty || n.s == dataflow.ONFlushed {
			th.nodes[v] = mtNode{s: dataflow.ONFlushed, epoch: th.epoch}
		}
	}
}

// mtApplyEvent mirrors OrderState.WithOrderEvent on thread t's state,
// tagging promotions with their reach (see the package comment above).
func mtApplyEvent(st *mtState, t int, ev dataflow.OrderEvent, d dataflow.OrderDesign) {
	th := &st.th[t]
	switch ev {
	case dataflow.OENone:
	case dataflow.OEFence:
		global := d == dataflow.DesignX86
		for v, n := range th.nodes {
			if n.s == dataflow.ONFlushed && n.epoch == th.epoch {
				th.nodes[v] = mtNode{s: dataflow.ONOrdered, epoch: n.epoch, global: global}
			}
		}
	case dataflow.OEDurable:
		for v, n := range th.nodes {
			if n.s == dataflow.ONFlushed {
				th.nodes[v] = mtNode{s: dataflow.ONOrdered, epoch: n.epoch, global: true}
			} else if n.s == dataflow.ONOrdered && !n.global {
				n.global = true
				th.nodes[v] = n
			}
		}
	case dataflow.OEEpoch:
		if th.epoch >= mtEpochCap {
			mtApplyEvent(st, t, dataflow.OEUnknown, d)
			return
		}
		th.epoch++
		for v, n := range th.nodes {
			if n.s == dataflow.ONOrdered {
				th.nodes[v] = mtNode{s: dataflow.ONFlushed, epoch: dataflow.EpochStale}
			}
		}
	default: // OEFlush without coverage, OEUnknown
		for v := range th.nodes {
			th.nodes[v] = mtNode{s: dataflow.ONPoisoned, epoch: dataflow.EpochStale}
		}
	}
}

// mtEpochCap mirrors the order lattice's saturating epoch counter.
const mtEpochCap = 16

// mtClaim evaluates "Data's final value persists before Commit's final
// value" at the final commit store's issue point.
func mtClaim(p Pattern, st *mtState, d dataflow.OrderDesign, counts []int, commitOwner int) bool {
	if counts[Data] == 0 {
		return true // vacuous: no data store anywhere in the pattern
	}
	if st.issued[Data] < counts[Data] {
		// Data's final store has not issued yet in this interleaving;
		// a crash after the commit store persists can leave the final
		// data value unwritten.
		return false
	}
	for i := range st.th {
		if n, ok := st.th[i].nodes[Data]; ok && n.s == dataflow.ONOrdered && (n.global || i == commitOwner) {
			return true
		}
	}
	if dataflow.LineCoalesce(d) && p.SameBlock(Data, Commit) {
		if n, ok := st.th[p.storeOwner(Data)].nodes[Data]; ok && n.s != dataflow.ONPoisoned {
			return true
		}
	}
	return false
}

// staticOrderedMT folds a multi-threaded pattern: ORDERED iff the claim
// holds at the final commit store in every feasible interleaving.
func staticOrderedMT(p Pattern, d dataflow.OrderDesign) bool {
	counts := p.storeCounts()
	if counts[Commit] == 0 {
		return true // no commit store: nothing to claim
	}
	commitOwner := p.storeOwner(Commit)
	nt := p.NThreads()

	var explore func(st *mtState) bool
	explore = func(st *mtState) bool {
		for t := 0; t < nt; t++ {
			if !mtEnabled(p, st, t) {
				continue
			}
			op := p.ThreadOps(t)[st.pc[t]]
			if op.Kind == OpStore && op.Var == Commit && st.issued[Commit] == counts[Commit]-1 {
				// Final commit store: the claim is adjudicated at its
				// issue point; the interleaving's continuation cannot
				// change the verdict.
				if !mtClaim(p, st, d, counts, commitOwner) {
					return false
				}
				continue
			}
			next := st.clone()
			next.pc[t]++
			switch op.Kind {
			case OpStore:
				mtApplyStore(next, t, op.Var, d)
			case OpFlush:
				if dataflow.LowerModelOp(dataflow.MFlush, d) == dataflow.OEFlush {
					mtApplyFlush(p, next, t, func(v int) bool { return v == op.Var })
				}
			case OpCLWB:
				if dataflow.LowerISAOp(dataflow.ICLWB, d) == dataflow.OEFlush {
					mtApplyFlush(p, next, t, func(v int) bool { return p.SameBlock(v, op.Var) })
				}
			case OpLock:
				next.holder = t
				mtApplyEvent(next, t, LowerKind(op.Kind, d), d)
			case OpUnlock:
				if next.holder == t {
					next.holder = -1
				}
				mtApplyEvent(next, t, LowerKind(op.Kind, d), d)
			default:
				mtApplyEvent(next, t, LowerKind(op.Kind, d), d)
			}
			if !explore(next) {
				return false
			}
		}
		// No enabled thread: either every stream is done, or the rest
		// of this interleaving is lock-stuck; the final commit store is
		// unreachable either way, so the claim holds vacuously here.
		return true
	}
	return explore(newMTState(nt, p.NumVars()))
}
