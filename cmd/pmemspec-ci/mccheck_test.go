package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pmemspec/internal/mc"
)

// mcReport writes a minimal passing model-checking report to a temp
// file and returns its path, after applying mutate.
func mcReport(t *testing.T, mutate func(*mc.Report)) string {
	t.Helper()
	rep := mc.Report{
		Patterns:       52,
		Designs:        5,
		OrderedCells:   125,
		UnorderedCells: 135,
		Witnessed:      40,
		Schedules:      600,
		Bound:          9000,
		Images:         2400,
		UniqueImages:   1000,
	}
	for i := 0; i < 260; i++ {
		ordered := i < 125
		rep.Cells = append(rep.Cells, mc.CellResult{
			Pattern:      "p",
			Design:       "d",
			Static:       ordered,
			Expected:     ordered,
			Schedules:    5,
			Bound:        80,
			Images:       20,
			UniqueImages: 8,
			Witnessed:    !ordered && i < 165,
		})
	}
	if mutate != nil {
		mutate(&rep)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mc.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMCCheckPasses(t *testing.T) {
	path := mcReport(t, nil)
	if rc := mcCheck([]string{"-report", path}); rc != 0 {
		t.Fatalf("mc-check on a clean report = %d, want 0", rc)
	}
}

// TestMCCheckFailsUnderMinimums pins the default floors: 52 patterns
// (the 40-pattern single-threaded corpus floor plus the 12-pattern
// multi-threaded one) and all five designs.
func TestMCCheckFailsUnderMinimums(t *testing.T) {
	path := mcReport(t, func(r *mc.Report) {
		r.Patterns = 51
		r.Cells = r.Cells[:51*5]
	})
	if rc := mcCheck([]string{"-report", path}); rc != 1 {
		t.Fatal("mc-check must fail a report under the default 52-pattern floor")
	}
	if rc := mcCheck([]string{"-report", mcReport(t, nil), "-min-designs", "6"}); rc != 1 {
		t.Fatal("mc-check must fail a report under -min-designs")
	}
}

func TestMCCheckFailsOnRefutation(t *testing.T) {
	path := mcReport(t, func(r *mc.Report) {
		r.Refuted = 1
		r.Cells[0].Refuted = true
	})
	if rc := mcCheck([]string{"-report", path}); rc != 1 {
		t.Fatal("mc-check must fail a report with a refuted ORDERED cell")
	}
}

func TestMCCheckFailsWithoutPruning(t *testing.T) {
	path := mcReport(t, func(r *mc.Report) { r.Schedules = r.Bound })
	if rc := mcCheck([]string{"-report", path}); rc != 1 {
		t.Fatal("mc-check must fail when explored schedules reach the unreduced bound")
	}
}

func TestMCCheckFailsOnEmptyCell(t *testing.T) {
	path := mcReport(t, func(r *mc.Report) { r.Cells[3].Schedules = 0 })
	if rc := mcCheck([]string{"-report", path}); rc != 1 {
		t.Fatal("mc-check must fail when a cell explored no schedules")
	}
}

func TestMCCheckCappedPolicy(t *testing.T) {
	path := mcReport(t, func(r *mc.Report) {
		r.CappedCells = 2
		r.Cells[0].Capped = true
		r.Cells[1].Capped = true
	})
	if rc := mcCheck([]string{"-report", path}); rc != 1 {
		t.Fatal("mc-check must fail capped cells in an exhaustive sweep")
	}
}

func TestMCCheckWitnessFloor(t *testing.T) {
	path := mcReport(t, func(r *mc.Report) { r.Witnessed = 0 })
	if rc := mcCheck([]string{"-report", path}); rc != 1 {
		t.Fatal("mc-check must fail when no UNORDERED cell is witnessed")
	}
}

func TestMCCheckFailsOnMismatch(t *testing.T) {
	path := mcReport(t, func(r *mc.Report) {
		r.Mismatches = 1
		r.Cells[0].Expected = !r.Cells[0].Expected
	})
	if rc := mcCheck([]string{"-report", path}); rc != 1 {
		t.Fatal("mc-check must fail a fold/table mismatch")
	}
}
