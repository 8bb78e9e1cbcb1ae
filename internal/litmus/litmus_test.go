package litmus

import (
	"encoding/json"
	"testing"

	"pmemspec/internal/analysis/dataflow"
)

// TestCorpusSize pins the corpus floor the CI gate relies on: at least
// 40 patterns, across all five designs at least 200 cells.
func TestCorpusSize(t *testing.T) {
	c := Corpus()
	if len(c) < 40 {
		t.Fatalf("corpus has %d patterns, want >= 40", len(c))
	}
	if _, pairs := Select(c, "", 0, nil); len(pairs) != 5 {
		t.Fatalf("Select matched %d designs, want 5", len(pairs))
	}
	if cells := len(c) * 5; cells < 200 {
		t.Fatalf("corpus covers %d cells, want >= 200", cells)
	}
	seen := map[string]bool{}
	for _, p := range c {
		if seen[p.Name] {
			t.Errorf("duplicate pattern name %q", p.Name)
		}
		seen[p.Name] = true
		if len(p.Ops) == 0 {
			t.Errorf("pattern %q has no ops", p.Name)
		}
	}
}

// TestCorpusExpectations pins the order-lattice fold to the corpus's
// hand-derived truth tables: a mismatch means either the lattice or the
// table changed semantics, and the crash campaign would chase the wrong
// claim.
func TestCorpusExpectations(t *testing.T) {
	for _, p := range Corpus() {
		for i, d := range dataflow.OrderDesigns() {
			if got := StaticOrdered(p, d); got != p.Expect[i] {
				t.Errorf("%s on %s: lattice says ordered=%v, corpus table says %v",
					p.Name, d, got, p.Expect[i])
			}
		}
	}
}

// TestCorpusLocksBalanced guards the interpreter invariant: no pattern
// may end a trial holding the mutex (a run-to-completion trial would
// deadlock a later acquire; the auto-unlock tail is a safety net, not a
// license).
func TestCorpusLocksBalanced(t *testing.T) {
	for _, p := range Corpus() {
		held := 0
		for _, op := range p.Ops {
			switch op.Kind {
			case OpLock:
				held++
			case OpUnlock:
				held--
			}
			if held < 0 {
				t.Errorf("pattern %q unlocks before locking", p.Name)
			}
		}
		if held != 0 {
			t.Errorf("pattern %q ends with %d locks held", p.Name, held)
		}
	}
}

// TestLitmusSmallRun drives a handful of corpus patterns end to end
// through the crash harness on every design and requires the
// differential contract to hold: no refutations, no mismatches, no
// trial failures — and at least one UNORDERED witness, proving the
// campaign can actually observe commit-without-data.
func TestLitmusSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("crash campaign in -short mode")
	}
	sub := []Pattern{}
	for _, name := range []string{"bare", "flush-order", "flush-durable", "specbarrier", "sameline-bare"} {
		p, ok := PatternByName(name)
		if !ok {
			t.Fatalf("corpus pattern %q missing", name)
		}
		sub = append(sub, p)
	}
	rep := RunCorpus(sub, Options{PointBudget: 6})
	if !rep.Ok() {
		for _, c := range rep.Cells {
			if c.Refuted || c.Static != c.Expected || len(c.Failures) > 0 {
				t.Errorf("cell %s/%s: refuted=%v static=%v expected=%v failures=%v",
					c.Pattern, c.Design, c.Refuted, c.Static, c.Expected, c.Failures)
			}
		}
		t.Fatalf("campaign not ok: %s", rep.Summary())
	}
	if rep.Witnessed == 0 {
		t.Fatalf("no UNORDERED cell was witnessed — the witness window is not opening: %s", rep.Summary())
	}
	if rep.Trials == 0 || rep.Patterns != len(sub) || rep.Designs != 5 {
		t.Fatalf("unexpected report shape: %s", rep.Summary())
	}
}

// TestLitmusReportDeterministic runs the same small campaign at worker
// widths 1 and 4 and requires byte-identical JSON: the report must be
// keyed by cell index, never completion order.
func TestLitmusReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("crash campaign in -short mode")
	}
	sub := []Pattern{}
	for _, name := range []string{"flush-order", "durable-noflush"} {
		p, ok := PatternByName(name)
		if !ok {
			t.Fatalf("corpus pattern %q missing", name)
		}
		sub = append(sub, p)
	}
	run := func(workers int) []byte {
		rep := RunCorpus(sub, Options{PointBudget: 4, Parallel: workers})
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := run(1), run(4)
	if string(a) != string(b) {
		t.Fatalf("report differs across worker counts:\n  1: %s\n  4: %s", a, b)
	}
}

// TestSubsamplePatterns pins the quick-mode selection: deterministic,
// bounded, spread across the corpus.
func TestSubsamplePatterns(t *testing.T) {
	c := Corpus()
	sub, _ := Select(c, "", 8, nil)
	if len(sub) != 8 {
		t.Fatalf("subsample returned %d patterns, want 8", len(sub))
	}
	if sub[0].Name != c[0].Name {
		t.Errorf("subsample should keep the first pattern, got %q", sub[0].Name)
	}
	again, _ := Select(c, "", 8, nil)
	for i := range sub {
		if sub[i].Name != again[i].Name {
			t.Fatalf("subsample not deterministic at %d: %q vs %q", i, sub[i].Name, again[i].Name)
		}
	}
}
