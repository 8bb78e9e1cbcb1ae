package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOptimizerFixLoops proves the apply side of each optimization
// analyzer on its own golden fixture: propose edits, apply them
// mechanically (group-atomically — a hoist's deletion and insertion
// land together or not at all), show the result still parses and
// type-checks, and re-analyze the edited tree to show every proposal
// was consumed without creating a new one. The end-to-end simulate +
// crash-campaign leg of the loop lives in cmd/pmemspec-opt; this test
// pins the edit mechanics.
func TestOptimizerFixLoops(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		fixture  string
	}{
		{FlushCoalesce, "flushcoalescetest"},
		{FenceHoist, "fencehoisttest"},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			root := repoRoot(t)
			l, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := l.Load("./internal/analysis/testdata/src/" + tc.fixture)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := RunAnalyzers(l.Fset, pkgs, []*Analyzer{tc.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			if len(diags) == 0 {
				t.Fatal("fixture produced no findings")
			}
			for _, d := range diags {
				if d.Edit == nil {
					t.Errorf("finding without a machine-applicable edit: %s", d)
				}
			}
			byFile := CollectEdits(diags)
			if len(byFile) != 1 {
				t.Fatalf("expected edits in exactly one file, got %d", len(byFile))
			}

			dir, err := os.MkdirTemp(filepath.Join(root, "internal", "analysis", "testdata", "src"), "optfixed")
			if err != nil {
				t.Fatal(err)
			}
			defer os.RemoveAll(dir)
			for file, edits := range byFile {
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				out, applied, skipped, err := ApplyEditsDetailed(src, edits)
				if err != nil {
					t.Fatal(err)
				}
				// The fixtures are built so no proposal overlaps another.
				if len(skipped) != 0 || len(applied) != len(edits) {
					t.Fatalf("applied %d of %d edits, %d skipped", len(applied), len(edits), len(skipped))
				}
				if diff := Diff(file, src, out); !strings.Contains(diff, "--- a/") || !strings.Contains(diff, "\tm.") {
					t.Errorf("diff rendering looks wrong:\n%s", diff)
				}
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(file)), out, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			// Re-analyze the edited tree (a fresh loader type-checks the
			// rewritten source from scratch): every proposal consumed.
			l2, err := NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				t.Fatal(err)
			}
			pkgs2, err := l2.Load("./" + filepath.ToSlash(rel))
			if err != nil {
				t.Fatal(err)
			}
			diags2, err := RunAnalyzers(l2.Fset, pkgs2, []*Analyzer{tc.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags2 {
				t.Errorf("edited tree still has a finding: %s", d)
			}
		})
	}
}
