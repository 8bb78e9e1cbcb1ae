// Package analysis is the repository's static persistency-discipline
// and determinism checker: a stdlib-only (go/parser, go/ast, go/types)
// analysis engine with a shared source loader, a cross-package fact
// store, and vet-style diagnostics, driven by cmd/pmemspec-lint.
//
// The shipped analyzers enforce the invariants the PMEM-Spec paper's
// compiler pass and the experiment harness's determinism contract
// otherwise leave to convention:
//
//	specpair        lock/spec-assign pairing on all control-flow paths
//	                (§6: spec-assign/spec-revoke around critical
//	                sections, revoke ordered before the unlock)
//	barrierpair     every raw PM store is flushed and ordered before
//	                commit, lock release or return (Figure 2), and no
//	                fence is issued twice in a row
//	persistflow     interprocedural per-location persist-state tracking
//	                on the shared dataflow engine: missing flush/fence
//	                through call layers, wrong-epoch stores, §6 spec
//	                coverage of lock-protected stores
//	persistorder    static persist-order graph per function: declared
//	                data-before-commit-marker invariants
//	                (//persistorder: directives) are verified on every
//	                design's barrier lowering, with per-design
//	                interprocedural order facts; verdicts are
//	                differentially validated by the internal/litmus
//	                corpus under the crash campaign
//	redundantbarrier provably-redundant flushes and fences, with
//	                machine-applicable deletion fixes (-fix/-diff)
//	simdeterminism  no wall-clock reads, global RNG, or order-sensitive
//	                map iteration in simulator/harness/report code (the
//	                byte-identical-at-any--parallel-width contract)
//	poolcapture     worker-pool job closures neither capture loop
//	                variables nor write shared state
//
// A diagnostic is suppressed by a `//lint:allow <analyzer>` comment on
// the same or the preceding line; use it for intentional exceptions
// such as wall-clock timing in pmemspec-bench.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, in vet coordinates.
type Diagnostic struct {
	Pos      token.Position `json:"-"`
	Package  string         `json:"package"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
	// Edit is a machine-applicable fix, when the analyzer can offer one
	// (pmemspec-lint -fix applies it).
	Edit *SuggestedEdit `json:"edit,omitempty"`
	// EditSkipped is set by fix mode when the edit was dropped because
	// its group overlapped an earlier-applied one; the opt driver uses
	// it to account for unapplied suggestions.
	EditSkipped bool `json:"edit_skipped,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Analyzers lists the shipped checks in run order. PersistFlow runs
// before RedundantBarrier so the optimizer sees fresh pf: summaries
// within each package.
func Analyzers() []*Analyzer {
	return []*Analyzer{SpecPair, BarrierPair, PersistFlow, PersistOrder, RedundantBarrier, SimDeterminism, PoolCapture}
}

// OptAnalyzers lists the optimization suite: analyzers whose findings
// are performance suggestions rather than discipline violations. They
// are not part of the default set (a clean tree is allowed to contain
// naive-but-correct persist code); pmemspec-lint selects them by name
// via -c and pmemspec-opt drives them through the
// optimize→simulate→verify loop.
func OptAnalyzers() []*Analyzer {
	return []*Analyzer{FlushCoalesce, FenceHoist}
}

// FactStore carries analyzer-computed facts about objects across
// packages. Packages are analyzed in dependency order, so a fact
// exported while analyzing a callee's package is visible to callers.
type FactStore struct {
	facts map[types.Object]map[string]bool
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: make(map[types.Object]map[string]bool)}
}

// Export records fact for obj.
func (s *FactStore) Export(obj types.Object, fact string) {
	if obj == nil {
		return
	}
	m := s.facts[obj]
	if m == nil {
		m = make(map[string]bool)
		s.facts[obj] = m
	}
	m[fact] = true
}

// Has reports whether fact was exported for obj.
func (s *FactStore) Has(obj types.Object, fact string) bool {
	return obj != nil && s.facts[obj][fact]
}

// Pass is one (analyzer, package) execution.
type Pass struct {
	Fset  *token.FileSet
	Pkg   *Package
	Facts *FactStore

	analyzer *Analyzer
	allow    map[string]map[int][]string // file -> line -> allowed analyzers
	sink     *[]Diagnostic
}

// SuppressedAt reports whether a lint:allow directive for this
// analyzer sits on pos's line or the line above it. Analyzers may
// consult it on a func declaration to opt a whole function out —
// including its exported facts — when the function participates in a
// protocol the per-function view cannot see (e.g. redo logging's
// deferred ordering).
func (p *Pass) SuppressedAt(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, name := range p.allow[position.Filename][line] {
			if name == p.analyzer.Name || name == "all" {
				return true
			}
		}
	}
	return false
}

// Reportf records a diagnostic at pos unless a lint:allow directive on
// the same or preceding line suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.SuppressedAt(pos) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      position,
		Package:  p.Pkg.Path,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowRE matches the escape hatch: //lint:allow name[,name...] [reason].
var allowRE = regexp.MustCompile(`^//\s*lint:allow\s+([a-z, ]+)`)

// allowDirectives indexes every lint:allow comment of a package by file
// and line.
func allowDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int][]string {
	out := make(map[string]map[int][]string)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					out[pos.Filename] = byLine
				}
				for _, name := range strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' || r == ' ' }) {
					byLine[pos.Line] = append(byLine[pos.Line], name)
				}
			}
		}
	}
	return out
}

// AnalyzerStat is one analyzer's cumulative wall-clock across every
// package of a run — the attribution line for LINT_BUDGET_S
// regressions. Stats go to stderr only, never into -json (wall-clock
// would break byte-identical output).
type AnalyzerStat struct {
	Name    string
	Elapsed time.Duration
}

// RunAnalyzers runs the analyzers over the packages (already in
// dependency order, as Loader.Load returns them) and returns the
// surviving diagnostics sorted by position.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunAnalyzersTimed(fset, pkgs, analyzers)
	return diags, err
}

// RunAnalyzersTimed is RunAnalyzers plus per-analyzer wall-clock
// stats, in the analyzers' given order.
func RunAnalyzersTimed(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerStat, error) {
	facts := NewFactStore()
	var diags []Diagnostic
	elapsed := make([]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		if !pkg.InModule {
			continue
		}
		allow := allowDirectives(fset, pkg.Files)
		for ai, a := range analyzers {
			pass := &Pass{
				Fset:     fset,
				Pkg:      pkg,
				Facts:    facts,
				analyzer: a,
				allow:    allow,
				sink:     &diags,
			}
			start := time.Now()
			err := a.Run(pass)
			elapsed[ai] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sortDiagnostics(diags)
	stats := make([]AnalyzerStat, len(analyzers))
	for ai, a := range analyzers {
		stats[ai] = AnalyzerStat{Name: a.Name, Elapsed: elapsed[ai]}
	}
	return diags, stats, nil
}

// FormatStats renders one per-analyzer wall-clock stats line.
func FormatStats(stats []AnalyzerStat) string {
	parts := make([]string, len(stats))
	for i, s := range stats {
		parts[i] = fmt.Sprintf("%s=%dms", s.Name, s.Elapsed.Milliseconds())
	}
	return "analyzer wall-clock: " + strings.Join(parts, " ")
}

// sortDiagnostics orders findings by (package, file, line, column,
// analyzer, message) — a total order over everything the JSON output
// prints, so -json is byte-identical across runs regardless of
// analyzer scheduling or map iteration inside an analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pathHasAny reports whether the package path contains one of the given
// segments — the analyzers' scoping primitive.
func pathHasAny(pkgPath string, segments ...string) bool {
	for _, s := range segments {
		if strings.Contains(pkgPath, s) {
			return true
		}
	}
	return false
}
