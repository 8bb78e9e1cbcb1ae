package litmus

import (
	"testing"

	"pmemspec/internal/analysis/dataflow"
)

// TestMTCorpusShape pins the model-checker bounds and the structural
// invariants the MT fold and the explorer both rely on: every pattern
// fits the small-scope bounds (≤ 3 threads, ≤ 8 ops/thread), every
// variable is stored by exactly one thread (final values must be
// schedule-independent), and each thread's locks balance (an
// interleaving must never end holding the mutex).
func TestMTCorpusShape(t *testing.T) {
	c := MTCorpus()
	if len(c) < 12 {
		t.Fatalf("MT corpus has %d patterns, want >= 12", len(c))
	}
	stNames := map[string]bool{}
	for _, p := range Corpus() {
		stNames[p.Name] = true
	}
	seen := map[string]bool{}
	for _, p := range c {
		if !p.MT() {
			t.Errorf("pattern %q is in the MT corpus but has no Threads", p.Name)
			continue
		}
		if len(p.Ops) != 0 {
			t.Errorf("pattern %q sets both Ops and Threads", p.Name)
		}
		if seen[p.Name] {
			t.Errorf("duplicate MT pattern name %q", p.Name)
		}
		if stNames[p.Name] {
			t.Errorf("MT pattern %q collides with a single-threaded pattern", p.Name)
		}
		seen[p.Name] = true
		if n := p.NThreads(); n < 2 || n > 3 {
			t.Errorf("pattern %q has %d threads, want 2..3", p.Name, n)
		}
		owner := map[int]int{}
		for tid := 0; tid < p.NThreads(); tid++ {
			ops := p.ThreadOps(tid)
			if len(ops) == 0 || len(ops) > 8 {
				t.Errorf("pattern %q thread %d has %d ops, want 1..8", p.Name, tid, len(ops))
			}
			held := 0
			for _, op := range ops {
				switch op.Kind {
				case OpStore:
					if prev, ok := owner[op.Var]; ok && prev != tid {
						t.Errorf("pattern %q: var %d stored by threads %d and %d", p.Name, op.Var, prev, tid)
					}
					owner[op.Var] = tid
				case OpLock:
					held++
				case OpUnlock:
					held--
				}
				if held < 0 {
					t.Errorf("pattern %q thread %d unlocks before locking", p.Name, tid)
				}
			}
			if held != 0 {
				t.Errorf("pattern %q thread %d ends with %d locks held", p.Name, tid, held)
			}
		}
	}
}

// TestMTCorpusExpectations pins the interleaving-quantified MT fold to
// the corpus's hand-derived truth tables, exactly as
// TestCorpusExpectations does for the single-threaded fold.
func TestMTCorpusExpectations(t *testing.T) {
	for _, p := range MTCorpus() {
		for i, d := range dataflow.OrderDesigns() {
			if got := StaticOrdered(p, d); got != p.Expect[i] {
				t.Errorf("%s on %s: MT fold says ordered=%v, corpus table says %v",
					p.Name, d, got, p.Expect[i])
			}
		}
	}
}

// TestMTCrossThreadNeverOrdered pins the structural fact the corpus
// comment asserts: a claim pair whose data and commit stores live on
// different threads is never ORDERED non-vacuously — some interleaving
// issues the commit store before the data store exists.
func TestMTCrossThreadNeverOrdered(t *testing.T) {
	for _, p := range MTCorpus() {
		counts := p.storeCounts()
		if counts[Data] == 0 || counts[Commit] == 0 {
			continue
		}
		if p.storeOwner(Data) == p.storeOwner(Commit) {
			continue
		}
		for i, d := range dataflow.OrderDesigns() {
			if p.Expect[i] {
				t.Errorf("%s on %s: cross-thread claim pair marked ORDERED", p.Name, d)
			}
			if StaticOrdered(p, d) {
				t.Errorf("%s on %s: MT fold calls a cross-thread claim pair ORDERED", p.Name, d)
			}
		}
	}
}
