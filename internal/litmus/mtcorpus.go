package litmus

// MTCorpus returns the multi-threaded litmus corpus: cross-thread
// flush/commit races, racing strand updates, lock-handoff persist
// ordering, and LOC-style out-of-order intra-transaction persists.
// Expect columns are hand-derived in canonical design order (IntelX86,
// DPO, HOPS, StrandWeaver, PMEM-Spec) under the interleaving-quantified
// claim: ORDERED iff Data's final value persists before Commit's final
// value in *every* feasible schedule.
//
// Two structural facts shape the tables. First, a claim pair split
// across threads is never ORDERED non-vacuously: litmus streams are
// unconditional, so some interleaving issues the commit store before
// the data store even exists, and no design can order a write that has
// not happened. Cross-thread rows therefore pin the all-false column —
// that they are falsifiable is exactly what the model checker witnesses
// and the single-schedule harness misses. Second, a same-thread claim
// pair keeps its single-threaded verdict only if racing threads cannot
// interfere; the ordered rows prove that non-interference per design.
//
// Every variable is stored by exactly one thread (asserted in tests) so
// final values are schedule-independent. A = var 0 (Data), B = var 1
// (Commit); C, D are background variables.
func MTCorpus() []Pattern {
	A, B, C, D := Data, Commit, 2, 3
	return []Pattern{
		// --- Cross-thread claim pairs: racing flush/commit. ---
		{
			// The witness-miss regression pattern: under the default
			// (clock, id) schedule both threads run in lockstep and A's
			// writeback always admits no later than B's, so the
			// single-schedule harness never sees commit-without-data;
			// the schedule that runs T1 first does.
			Name:    "mt-flush-race",
			Threads: [][]Op{{St(A), Fl(A), Bar(OpSFence)}, {St(B), Fl(B), Bar(OpSFence)}},
			Expect:  [5]bool{false, false, false, false, false},
		},
		{
			// Flush on one thread, stores on another: coherence makes
			// T1's flush of A effective, but no interleaving forces it
			// between T0's two stores.
			Name:    "mt-remote-flush-commit",
			Threads: [][]Op{{St(A), St(B)}, {Fl(A), Bar(OpSFence)}},
			Expect:  [5]bool{false, true, false, false, false},
		},
		{
			Name:    "mt-cross-bare",
			Threads: [][]Op{{St(A)}, {St(B)}},
			Expect:  [5]bool{false, false, false, false, false},
		},
		{
			Name:    "mt-3thread-race",
			Threads: [][]Op{{St(A), Fl(A), Bar(OpSFence)}, {St(B), Fl(B), Bar(OpSFence)}, {St(C), Fl(C), Bar(OpSFence)}},
			Expect:  [5]bool{false, false, false, false, false},
		},

		// --- Same-thread claim pairs under background noise: the
		// single-threaded verdicts must survive racing threads. ---
		{
			Name:    "mt-bg-noise-ordered",
			Threads: [][]Op{{St(A), Fl(A), Bar(OpDurableBarrier), St(B)}, {St(C), Fl(C)}},
			Expect:  [5]bool{true, true, true, true, true},
		},
		{
			Name:    "mt-bg-noise-bare",
			Threads: [][]Op{{St(A), St(B)}, {St(C), Fl(C), Bar(OpSFence)}},
			Expect:  [5]bool{false, true, false, false, false},
		},
		{
			Name:    "mt-3thread-ordered",
			Threads: [][]Op{{St(A), Fl(A), Bar(OpDurableBarrier), St(B)}, {St(C)}, {St(D)}},
			Expect:  [5]bool{true, true, true, true, true},
		},
		{
			Name:     "mt-sameline-race",
			SameLine: true,
			Threads:  [][]Op{{St(A), St(B)}, {St(C)}},
			Expect:   [5]bool{true, true, false, false, false},
		},

		// --- Lock-handoff persist ordering. ---
		{
			// Handing the claim pair across a critical section does not
			// order it: the interleaving that grants T1 the lock first
			// commits before the data store exists.
			Name:    "mt-lock-handoff",
			Threads: [][]Op{{Bar(OpLock), St(A), Fl(A), Bar(OpUnlock)}, {Bar(OpLock), St(B), Bar(OpUnlock)}},
			Expect:  [5]bool{false, false, false, false, false},
		},
		{
			// A fully ordered transaction inside its critical section
			// keeps its verdict under lock contention.
			Name:    "mt-lock-ordered",
			Threads: [][]Op{{Bar(OpLock), St(A), Fl(A), Bar(OpDurableBarrier), St(B), Bar(OpUnlock)}, {Bar(OpLock), St(C), Bar(OpUnlock)}},
			Expect:  [5]bool{true, true, true, true, true},
		},

		// --- Racing strand updates. ---
		{
			// Both stores in one explicit strand, ordered by an (async)
			// persist barrier; T1 races its own strand.
			Name:    "mt-strand-race",
			Threads: [][]Op{{Bar(OpNewStrand), St(A), Bar(OpPersistBarrier), St(B)}, {Bar(OpNewStrand), St(C)}},
			Expect:  [5]bool{false, true, false, true, false},
		},
		{
			// NewStrand severs: A sits in the old strand, the barrier
			// only orders the new one.
			Name:    "mt-strand-sever",
			Threads: [][]Op{{St(A), Bar(OpNewStrand), Bar(OpPersistBarrier), St(B)}, {Bar(OpNewStrand), St(C), Bar(OpPersistBarrier)}},
			Expect:  [5]bool{false, true, false, false, false},
		},
		{
			// JoinStrand drains every strand synchronously.
			Name:    "mt-strand-join",
			Threads: [][]Op{{St(A), Bar(OpJoinStrand), St(B)}, {Bar(OpNewStrand), St(C), Bar(OpPersistBarrier)}},
			Expect:  [5]bool{false, true, false, true, false},
		},

		// --- LOC-style transactions: persists out of program order
		// inside the transaction, commit gated (or not) behind a
		// barrier. ---
		{
			Name:    "mt-loc-ooo",
			Threads: [][]Op{{St(A), St(C), Fl(C), Fl(A), Bar(OpDurableBarrier), St(B)}, {St(D), Fl(D)}},
			Expect:  [5]bool{true, true, true, true, true},
		},
		{
			// Same shape with only an sfence: enough on IntelX86 (fence
			// waits for WPQ admission) and DPO (drain), not on the
			// asynchronous designs.
			Name:    "mt-loc-unfenced",
			Threads: [][]Op{{St(A), St(C), Fl(C), Fl(A), Bar(OpSFence), St(B)}, {St(D)}},
			Expect:  [5]bool{true, true, false, false, false},
		},

		// --- Design-specific barriers under noise. ---
		{
			Name:    "mt-spec-race",
			Threads: [][]Op{{St(A), Bar(OpSpecBarrier), St(B)}, {St(C), Bar(OpSpecBarrier)}},
			Expect:  [5]bool{false, true, false, false, true},
		},
		{
			Name:    "mt-hops-dfence",
			Threads: [][]Op{{St(A), Bar(OpDFence), St(B)}, {St(C), Bar(OpOFence)}},
			Expect:  [5]bool{false, true, true, false, false},
		},
		{
			// HOPS ofence orders per-core epochs asynchronously: local
			// ordering, enough for a same-thread claim.
			Name:    "mt-hops-ofence",
			Threads: [][]Op{{St(A), Bar(OpOFence), St(B)}, {St(C), Bar(OpDFence)}},
			Expect:  [5]bool{false, true, true, false, false},
		},
	}
}
