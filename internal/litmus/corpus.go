package litmus

import (
	"slices"
	"strings"

	"pmemspec/internal/analysis/dataflow"
	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
)

// Corpus returns the generated litmus patterns. Each entry asserts
// "Data (var 0) persists before Commit (var 1)" and carries the
// hand-derived per-design truth table in canonical order
// (IntelX86, DPO, HOPS, StrandWeaver, PMEM-Spec).
//
// Reading the tables, per column:
//
//   - IntelX86 orders only what is flushed AND fenced (or shares the
//     commit's cache block: writebacks are line-granular).
//   - DPO is buffered strict persistency — its persist buffer drains
//     in program order, so every pattern is ordered.
//   - HOPS orders across an ofence epoch boundary; dfence drains.
//     Flushes are no-ops (the datapath carries every store).
//   - StrandWeaver's persist-barrier orders within the current strand
//     only: NewStrand severs it (even retroactively for claims into a
//     previous strand), JoinStrand drains every strand.
//   - PMEM-Spec has NO ordering primitive short of SpecBarrier — the
//     paper's asymmetry. Only SpecBarrier/DurableBarrier columns hold.
func Corpus() []Pattern {
	OB := Bar(OpOrderBarrier)
	NU := Bar(OpNextUpdate)
	DB := Bar(OpDurableBarrier)
	SF := Bar(OpSFence)
	OF := Bar(OpOFence)
	DF := Bar(OpDFence)
	PB := Bar(OpPersistBarrier)
	NS := Bar(OpNewStrand)
	JS := Bar(OpJoinStrand)
	SB := Bar(OpSpecBarrier)
	LK := Bar(OpLock)
	UL := Bar(OpUnlock)
	A, B, C := Data, Commit, 2

	return []Pattern{
		// Baselines: no barrier at all, flush without fence.
		{Name: "bare", Ops: []Op{St(A), St(B)},
			Expect: [5]bool{false, true, false, false, false}},
		{Name: "flush-only", Ops: []Op{St(A), Fl(A), St(B)},
			Expect: [5]bool{false, true, false, false, false}},

		// The model barriers (Figure 2 vocabulary).
		{Name: "flush-order", Ops: []Op{St(A), Fl(A), OB, St(B)},
			Expect: [5]bool{true, true, true, true, false}},
		{Name: "flush-durable", Ops: []Op{St(A), Fl(A), DB, St(B)},
			Expect: [5]bool{true, true, true, true, true}},
		{Name: "flush-next", Ops: []Op{St(A), Fl(A), NU, St(B)},
			Expect: [5]bool{true, true, true, false, false}},
		{Name: "order-noflush", Ops: []Op{St(A), OB, St(B)},
			Expect: [5]bool{false, true, true, true, false}},
		{Name: "durable-noflush", Ops: []Op{St(A), DB, St(B)},
			Expect: [5]bool{false, true, true, true, true}},
		{Name: "next-noflush", Ops: []Op{St(A), NU, St(B)},
			Expect: [5]bool{false, true, true, false, false}},

		// Raw ISA fences: each design honors only its own.
		{Name: "flush-sfence", Ops: []Op{St(A), Fl(A), SF, St(B)},
			Expect: [5]bool{true, true, false, false, false}},
		{Name: "sfence-noflush", Ops: []Op{St(A), SF, St(B)},
			Expect: [5]bool{false, true, false, false, false}},
		{Name: "ofence", Ops: []Op{St(A), OF, St(B)},
			Expect: [5]bool{false, true, true, false, false}},
		{Name: "dfence", Ops: []Op{St(A), DF, St(B)},
			Expect: [5]bool{false, true, true, false, false}},
		{Name: "flush-dfence", Ops: []Op{St(A), Fl(A), DF, St(B)},
			Expect: [5]bool{false, true, true, false, false}},
		{Name: "clwb-sfence", Ops: []Op{St(A), Clwb(A), SF, St(B)},
			Expect: [5]bool{true, true, false, false, false}},
		{Name: "clwb-only", Ops: []Op{St(A), Clwb(A), St(B)},
			Expect: [5]bool{false, true, false, false, false}},

		// Strand persistency: barriers are strand-relative.
		{Name: "pbarrier", Ops: []Op{St(A), PB, St(B)},
			Expect: [5]bool{false, true, false, true, false}},
		{Name: "pbar-newstrand", Ops: []Op{St(A), PB, NS, St(B)},
			Expect: [5]bool{false, true, false, false, false}},
		{Name: "newstrand-pbar", Ops: []Op{St(A), NS, PB, St(B)},
			Expect: [5]bool{false, true, false, false, false}},
		{Name: "newstrand-join", Ops: []Op{St(A), NS, JS, St(B)},
			Expect: [5]bool{false, true, false, true, false}},
		{Name: "joinstrand", Ops: []Op{St(A), JS, St(B)},
			Expect: [5]bool{false, true, false, true, false}},
		{Name: "double-break", Ops: []Op{St(A), NS, NS, JS, St(B)},
			Expect: [5]bool{false, true, false, true, false}},
		{Name: "order-newstrand", Ops: []Op{St(A), Fl(A), OB, NS, St(B)},
			Expect: [5]bool{true, true, true, false, false}},
		{Name: "newstrand-durable", Ops: []Op{St(A), NS, DB, St(B)},
			Expect: [5]bool{false, true, true, true, true}},

		// Speculation: SpecBarrier is PMEM-Spec's only edge.
		{Name: "specbarrier", Ops: []Op{St(A), SB, St(B)},
			Expect: [5]bool{false, true, false, false, true}},
		{Name: "flush-specbarrier", Ops: []Op{St(A), Fl(A), SB, St(B)},
			Expect: [5]bool{false, true, false, false, true}},

		// Lock acquisition drains on x86/DPO only; release adds
		// nothing except on DPO.
		{Name: "flush-lock", Ops: []Op{St(A), Fl(A), LK, St(B), UL},
			Expect: [5]bool{true, true, false, false, false}},
		{Name: "lock-noflush", Ops: []Op{St(A), LK, St(B), UL},
			Expect: [5]bool{false, true, false, false, false}},
		{Name: "unlock-release", Ops: []Op{LK, St(A), Fl(A), UL, St(B)},
			Expect: [5]bool{false, true, false, false, false}},

		// Same-cache-block pairs: IntelX86 writebacks carry the whole
		// coherent line, the per-store designs persist payloads.
		{Name: "sameline-bare", Ops: []Op{St(A), St(B)}, SameLine: true,
			Expect: [5]bool{true, true, false, false, false}},
		{Name: "sameline-flush", Ops: []Op{St(A), Fl(A), St(B)}, SameLine: true,
			Expect: [5]bool{true, true, false, false, false}},
		{Name: "sameline-order", Ops: []Op{St(A), Fl(A), OB, St(B)}, SameLine: true,
			Expect: [5]bool{true, true, true, true, false}},
		{Name: "sameline-spec", Ops: []Op{St(A), SB, St(B)}, SameLine: true,
			Expect: [5]bool{true, true, false, false, true}},
		{Name: "sameline-dfence", Ops: []Op{St(A), DF, St(B)}, SameLine: true,
			Expect: [5]bool{true, true, true, false, false}},
		{Name: "sameline-clwb", Ops: []Op{St(A), Clwb(A), St(B)}, SameLine: true,
			Expect: [5]bool{true, true, false, false, false}},
		{Name: "sameline-next", Ops: []Op{St(A), NU, St(B)}, SameLine: true,
			Expect: [5]bool{true, true, true, false, false}},
		{Name: "sameline-lock", Ops: []Op{St(A), LK, St(B), UL}, SameLine: true,
			Expect: [5]bool{true, true, false, false, false}},

		// Re-stores demote: the claim is about the LATEST data value.
		{Name: "restore-durable", Ops: []Op{St(A), Fl(A), DB, St(A), St(B)},
			Expect: [5]bool{false, true, false, false, false}},
		{Name: "restore-order", Ops: []Op{St(A), Fl(A), DB, St(A), Fl(A), OB, St(B)},
			Expect: [5]bool{true, true, true, true, false}},
		{Name: "double-commit", Ops: []Op{St(B), St(A), Fl(A), DB, St(B)},
			Expect: [5]bool{true, true, true, true, true}},

		// Event-order subtleties.
		{Name: "durable-before-flush", Ops: []Op{St(A), DB, Fl(A), St(B)},
			Expect: [5]bool{false, true, true, true, true}},
		{Name: "reflush-after-fence", Ops: []Op{St(A), Fl(A), OB, Fl(A), St(B)},
			Expect: [5]bool{true, true, true, true, false}},
		{Name: "wrong-flush", Ops: []Op{St(A), Fl(C), OB, St(B)},
			Expect: [5]bool{false, true, true, true, false}},
		{Name: "third-var", Ops: []Op{St(A), St(C), Fl(A), Fl(C), OB, St(B)},
			Expect: [5]bool{true, true, true, true, false}},
		{Name: "flush-both-order", Ops: []Op{St(A), Fl(A), St(C), Fl(C), OB, St(B)},
			Expect: [5]bool{true, true, true, true, false}},
	}
}

// PatternByName returns the named corpus pattern.
func PatternByName(name string) (Pattern, bool) {
	for _, p := range Corpus() {
		if p.Name == name {
			return p, true
		}
	}
	return Pattern{}, false
}

// DesignPair is one design under both of its names: the order design
// the static fold judges and the machine design the simulator runs.
type DesignPair struct {
	Order   dataflow.OrderDesign
	Machine machine.Design
}

// Select picks a model-checking campaign's cells: the corpus patterns
// whose name contains pattern, stride-subsampled to at most
// maxPatterns (0: all), crossed with the designs named in designs
// (case-insensitive; empty: all five). Both come back in canonical
// report order, so a fixed selection always sweeps the same cells.
func Select(corpus []Pattern, pattern string, maxPatterns int, designs []string) ([]Pattern, []DesignPair) {
	var patterns []Pattern
	for _, p := range corpus {
		if strings.Contains(p.Name, pattern) {
			patterns = append(patterns, p)
		}
	}
	if maxPatterns > 0 {
		patterns = harness.Stride(patterns, maxPatterns)
	}
	wanted := func(name string) bool {
		return len(designs) == 0 || slices.ContainsFunc(designs, func(d string) bool { return strings.EqualFold(d, name) })
	}
	var pairs []DesignPair
	for _, od := range dataflow.OrderDesigns() {
		for _, md := range machine.AllDesigns {
			if md.String() == od.String() && wanted(od.String()) {
				pairs = append(pairs, DesignPair{od, md})
			}
		}
	}
	return patterns, pairs
}
