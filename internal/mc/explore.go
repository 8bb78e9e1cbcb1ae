// Package mc is the repository's one persist-order checker: an
// exhaustive small-scope model checker for the persistency litmus
// corpus (internal/litmus). It drives the simulator through every
// non-equivalent thread interleaving of a pattern (dynamic
// partial-order reduction with sleep sets) and, for each schedule,
// enumerates every reachable crash image from a single no-crash run.
// A single-threaded pattern is the degenerate cell: one schedule.
//
// Two layers make that tractable. Schedule enumeration is static: a
// litmus op issues atomically under the controlled scheduler, so the
// scheduling state is just (per-thread pc, lock holder) and the DFS
// never touches the simulator. Crash-point enumeration is a free
// by-product of execution: the persisted image mutates only at persist
// completion (see machine.SetPersistObserver) and a power failure
// discards all volatile state, so the chain of distinct persisted
// snapshots observed during one run IS the set of crash images every
// crash instant of that run could expose. One simulation per schedule
// therefore covers all schedules × all crash points.
//
// The independence relation (two steps commute unless they touch the
// same cache block, the shared WPQ path, or the lock) is deliberately
// conservative: over-approximating conflicts only costs redundant
// schedules, never coverage.
package mc

import (
	"pmemspec/internal/analysis/dataflow"
	"pmemspec/internal/litmus"
)

// opSig is the conflict signature of one litmus op on one design: what
// shared state it can touch.
type opSig struct {
	// hasVar: the op addresses a variable's cache block (stores,
	// lowered flushes, clwbs).
	hasVar bool
	v      int
	// persist: the op injects into or drains the shared persist path
	// (WPQ / persist queues). Stores persist implicitly on every design
	// but IntelX86; flushes only where they lower to a writeback;
	// synchronous drains (OEDurable, and OEFence on IntelX86, whose
	// sfence waits for WPQ admission) drain it.
	persist bool
	// lock: the op operates on the pattern's mutex.
	lock bool
}

// sigOf computes an op's conflict signature under design d.
func sigOf(p litmus.Pattern, op litmus.Op, d dataflow.OrderDesign) opSig {
	switch op.Kind {
	case litmus.OpStore:
		return opSig{hasVar: true, v: op.Var, persist: d != dataflow.DesignX86}
	case litmus.OpFlush:
		if dataflow.LowerModelOp(dataflow.MFlush, d) == dataflow.OEFlush {
			return opSig{hasVar: true, v: op.Var, persist: true}
		}
		return opSig{} // lowered away: pure timing
	case litmus.OpCLWB:
		if dataflow.LowerISAOp(dataflow.ICLWB, d) == dataflow.OEFlush {
			return opSig{hasVar: true, v: op.Var, persist: true}
		}
		return opSig{hasVar: true, v: op.Var}
	case litmus.OpLock, litmus.OpUnlock:
		ev := litmus.LowerKind(op.Kind, d)
		return opSig{lock: true, persist: ev == dataflow.OEDurable}
	default:
		switch litmus.LowerKind(op.Kind, d) {
		case dataflow.OEDurable, dataflow.OEUnknown:
			return opSig{persist: true}
		case dataflow.OEFence:
			return opSig{persist: d == dataflow.DesignX86}
		default:
			// OENone and OEEpoch: core-local (per-core epoch/strand
			// machinery), no cross-thread interaction.
			return opSig{}
		}
	}
}

// conflicts is the DPOR dependence relation: the two ops do not
// commute.
func conflicts(p litmus.Pattern, a, b opSig) bool {
	if a.hasVar && b.hasVar && p.SameBlock(a.v, b.v) {
		return true
	}
	if a.persist && b.persist {
		return true
	}
	return a.lock && b.lock
}

// Enumeration is the schedule set of one pattern × design cell.
type Enumeration struct {
	// Scripts are the explored schedules: each is the sequence of
	// thread ids released at successive choice points, covering every
	// op of every thread.
	Scripts [][]int
	// Bound is the unreduced interleaving count (the multinomial
	// coefficient over per-thread op counts) the sleep sets pruned
	// against.
	Bound int64
	// Capped: enumeration stopped at the schedule cap; Scripts is a
	// deterministic prefix of the full set.
	Capped bool
}

// enumerate explores the pattern's interleavings under design d with
// sleep-set partial-order reduction. cap > 0 bounds the number of
// complete schedules collected (-max-schedules); the DFS order is
// deterministic, so a capped enumeration is always the same prefix.
func enumerate(p litmus.Pattern, d dataflow.OrderDesign, cap int) Enumeration {
	nt := p.NThreads()
	sigs := make([][]opSig, nt)
	total := 0
	for t := 0; t < nt; t++ {
		ops := p.ThreadOps(t)
		sigs[t] = make([]opSig, len(ops))
		for i, op := range ops {
			sigs[t][i] = sigOf(p, op, d)
		}
		total += len(ops)
	}

	e := Enumeration{Bound: multinomial(p)}
	pc := make([]int, nt)
	holder := -1
	prefix := make([]int, 0, total)

	enabled := func(t int) bool {
		ops := p.ThreadOps(t)
		if pc[t] >= len(ops) {
			return false
		}
		// The mutex is non-reentrant: a lock op is a step only when the
		// lock is free. The holder's own stream stays enabled, so a
		// blocked state is unreachable under balanced locks.
		if ops[pc[t]].Kind == litmus.OpLock {
			return holder == -1
		}
		return true
	}

	var dfs func(sleep uint32)
	dfs = func(sleep uint32) {
		if e.Capped {
			return
		}
		var en uint32
		for t := 0; t < nt; t++ {
			if enabled(t) {
				en |= 1 << t
			}
		}
		if en == 0 {
			// All streams done (lock-stuck states are unreachable):
			// the prefix is a complete schedule.
			e.Scripts = append(e.Scripts, append([]int(nil), prefix...))
			if cap > 0 && len(e.Scripts) >= cap {
				e.Capped = true
			}
			return
		}
		if en&^sleep == 0 {
			return // every enabled step is asleep: a redundant interleaving
		}
		for t := 0; t < nt; t++ {
			if en&(1<<t) == 0 || sleep&(1<<t) != 0 {
				continue
			}
			sig := sigs[t][pc[t]]
			// The child inherits exactly the sleeping steps that
			// commute with the chosen one; a conflicting sleeper must
			// be re-explored after t (the orders differ).
			var childSleep uint32
			for u := 0; u < nt; u++ {
				if u != t && sleep&(1<<u) != 0 && en&(1<<u) != 0 &&
					!conflicts(p, sigs[u][pc[u]], sig) {
					childSleep |= 1 << u
				}
			}
			op := p.ThreadOps(t)[pc[t]]
			pc[t]++
			switch op.Kind {
			case litmus.OpLock:
				holder = t
			case litmus.OpUnlock:
				if holder == t {
					holder = -1
				}
			}
			prefix = append(prefix, t)
			dfs(childSleep)
			prefix = prefix[:len(prefix)-1]
			switch op.Kind {
			case litmus.OpLock:
				holder = -1
			case litmus.OpUnlock:
				holder = t
			}
			pc[t]--
			// t has been fully explored from this state: later siblings
			// need not re-run it until a conflicting step wakes it.
			sleep |= 1 << t
		}
	}
	dfs(0)
	return e
}

// multinomial is the unreduced interleaving count: (Σnᵢ)! / Πnᵢ!,
// computed as a product of binomials to stay in range.
func multinomial(p litmus.Pattern) int64 {
	total := 0
	out := int64(1)
	for t := 0; t < p.NThreads(); t++ {
		n := len(p.ThreadOps(t))
		total += n
		out *= binomial(total, n)
	}
	return out
}

func binomial(n, k int) int64 {
	if k > n-k {
		k = n - k
	}
	out := int64(1)
	for i := 1; i <= k; i++ {
		out = out * int64(n-k+i) / int64(i)
	}
	return out
}
