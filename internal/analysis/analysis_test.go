package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// repoRoot walks up from the test's working directory to go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// want is one expected diagnostic: a substring that must appear in a
// diagnostic reported at file:line.
type want struct {
	file   string
	line   int
	substr string
}

// wantRE extracts the quoted substrings of a `// want "..." "..."`
// comment.
var wantRE = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)

// parseWants scans the fixture sources for // want comments.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range regexp.MustCompile(`"[^"]*"`).FindAllString(m[1], -1) {
				wants = append(wants, want{file: e.Name(), line: i + 1, substr: strings.Trim(q, `"`)})
			}
		}
	}
	return wants
}

// runGolden checks one analyzer against its fixture package: every
// diagnostic must match a // want comment on its line and vice versa.
func runGolden(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	root := repoRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	rel := "internal/analysis/testdata/src/" + fixture
	pkgs, err := l.Load("./" + rel)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(l.Fset, pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, filepath.Join(root, filepath.FromSlash(rel)))
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", fixture)
	}
	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if !matched[i] && w.file == filepath.Base(d.File) && w.line == d.Line && strings.Contains(d.Message, w.substr) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: missing diagnostic containing %q", w.file, w.line, w.substr)
		}
	}
}

func TestSpecPairGolden(t *testing.T)       { runGolden(t, SpecPair, "specpairtest") }
func TestBarrierPairGolden(t *testing.T)    { runGolden(t, BarrierPair, "barrierpairtest") }
func TestSimDeterminismGolden(t *testing.T) { runGolden(t, SimDeterminism, "simdeterminismtest") }
func TestPoolCaptureGolden(t *testing.T)    { runGolden(t, PoolCapture, "poolcapturetest") }
func TestFlushCoalesceGolden(t *testing.T)  { runGolden(t, FlushCoalesce, "flushcoalescetest") }
func TestFenceHoistGolden(t *testing.T)     { runGolden(t, FenceHoist, "fencehoisttest") }

// TestRepoLintsClean is the repository's own gate: the full module must
// produce zero diagnostics under all analyzers.
func TestRepoLintsClean(t *testing.T) {
	root := repoRoot(t)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(l.Fset, pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repository should lint clean, got: %s", d)
	}
}

// TestLoaderResolvesModuleAndStdlib covers the loader's two resolution
// domains and the dependency ordering contract.
func TestLoaderResolvesModuleAndStdlib(t *testing.T) {
	l, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/workload")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || !pkgs[0].InModule {
		t.Fatalf("expected one module package, got %+v", pkgs)
	}
	if pkgs[0].Types == nil || pkgs[0].Types.Scope().Lookup("Workload") == nil {
		t.Fatal("workload package did not type-check (Workload not found in scope)")
	}
}

// TestLoaderDepCacheShared covers the cross-loader dependency cache:
// non-module packages type-checked by one loader are reused verbatim
// by the next (the opt driver builds a fresh loader per re-analysis,
// and only the module should be re-checked).
func TestLoaderDepCacheShared(t *testing.T) {
	root := repoRoot(t)
	l1, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Load("./internal/workload"); err != nil {
		t.Fatal(err)
	}
	l2, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Load("./internal/workload"); err != nil {
		t.Fatal(err)
	}
	if l1.Fset != l2.Fset {
		t.Fatal("loaders do not share the dependency FileSet")
	}
	shared := 0
	for path, p1 := range l1.pkgs {
		if p1 == nil || p1.InModule {
			continue
		}
		if p2 := l2.pkgs[path]; p2 != p1 {
			t.Errorf("dependency %s re-checked instead of reused", path)
		} else {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no dependency packages were shared between loaders")
	}
	for path, p := range l2.pkgs {
		if p != nil && p.InModule {
			if cached := depCache.pkgs[depKey(&l2.ctx, path)]; cached != nil {
				t.Errorf("module package %s leaked into the dependency cache", path)
			}
		}
	}
}

// TestLoaderDepCacheContextKeyed is the regression test for the cache
// key: entries are qualified by the build context, so two loaders with
// different toolchains (a sandboxed opt run pointing GOROOT elsewhere,
// a build-tag variant) can never share a type-checked dependency. A
// path-only key would hand the second loader a stdlib checked under
// the first loader's GOROOT.
func TestLoaderDepCacheContextKeyed(t *testing.T) {
	root := repoRoot(t)
	l1, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Load("./internal/mem"); err != nil {
		t.Fatal(err)
	}
	var dep string
	for path, p := range l1.pkgs {
		if p != nil && !p.InModule {
			dep = path
			break
		}
	}
	if dep == "" {
		t.Fatal("no dependency package loaded")
	}

	// Same context: hit. Different GOROOT or tags: distinct entries.
	if depCache.pkgs[depKey(&l1.ctx, dep)] == nil {
		t.Fatalf("dependency %s not cached under its own context key", dep)
	}
	altGoroot := l1.ctx
	altGoroot.GOROOT = "/nonexistent-toolchain"
	if depCache.pkgs[depKey(&altGoroot, dep)] != nil {
		t.Fatal("cache entry shared across GOROOTs")
	}
	altTags := l1.ctx
	altTags.BuildTags = append([]string{"sandboxtag"}, altTags.BuildTags...)
	if depCache.pkgs[depKey(&altTags, dep)] != nil {
		t.Fatal("cache entry shared across build-tag sets")
	}

	// End to end: a loader whose context cannot resolve the stdlib must
	// fail to load rather than silently reuse the other context's
	// entries.
	l2, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	l2.ctx.GOROOT = "/nonexistent-toolchain"
	if _, err := l2.Load("./internal/mem"); err == nil {
		t.Fatal("loader with a bogus GOROOT loaded the stdlib — it must have reused another context's cache entries")
	}
}

// TestAllowDirectiveParsing covers the escape-hatch comment forms.
func TestAllowDirectiveParsing(t *testing.T) {
	if !allowRE.MatchString("//lint:allow specpair") {
		t.Error("bare directive not recognized")
	}
	if !allowRE.MatchString("// lint:allow specpair, barrierpair some reason") {
		t.Error("spaced multi-name directive not recognized")
	}
	if allowRE.MatchString("// lint:disallow specpair") {
		t.Error("non-directive comment recognized")
	}
}
