package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmemspec/internal/litmus"
	"pmemspec/internal/mc"
)

// TestLoadReportRejects is the table over the capture failure modes
// every gate shares: a report that is malformed, truncated mid-object,
// carries an unknown field (schema drift), or has content appended
// after the object (concatenated captures) must never half-parse into
// a passing report.
func TestLoadReportRejects(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // substring of the error
	}{
		{"malformed", `{"patterns": forty}`, "schema"},
		{"truncated", `{"patterns": 12, "cells": [{"pattern": "p"`, "schema"},
		{"unknown-field", `{"patterns": 12, "bonus_field": 1}`, "schema"},
		{"trailing-object", `{"patterns": 12}{"patterns": 13}`, "trailing data"},
		{"trailing-garbage", `{"patterns": 12} tail`, "trailing data"},
		{"empty", ``, "schema"},
		{"wrong-type", `[1, 2, 3]`, "schema"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "rep.json")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			var rep mc.Report
			err := loadReport(path, &rep)
			if err == nil {
				t.Fatalf("loadReport accepted %s report", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadReportAcceptsKnownSchemas round-trips each gate's report
// type, including trailing whitespace/newline from MarshalIndent-style
// writers.
func TestLoadReportAcceptsKnownSchemas(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "rep.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var lit litmus.Report
	if err := loadReport(write(`{"patterns": 40, "designs": 5, "ordered_cells": 1, "unordered_cells": 1, "witnessed_cells": 1, "refuted_cells": 0, "static_mismatch_cells": 0, "failed_cells": 0, "trials": 10, "cells": null}`+"\n"), &lit); err != nil {
		t.Fatalf("litmus report rejected: %v", err)
	}
	if lit.Patterns != 40 {
		t.Fatalf("litmus report misparsed: %+v", lit)
	}
	var m mc.Report
	if err := loadReport(write(`{"patterns": 12, "designs": 5, "ordered_cells": 1, "unordered_cells": 1, "witnessed_cells": 1, "refuted_cells": 0, "static_mismatch_cells": 0, "failed_cells": 0, "capped_cells": 0, "schedules": 100, "bound": 200, "images": 50, "unique_images": 20, "cells": null}`), &m); err != nil {
		t.Fatalf("mc report rejected: %v", err)
	}
	var b benchRecord
	if err := loadReport(write(`{"parallel": 1, "num_cpu": 1, "threads": 8, "ops": 400, "seed": 1, "experiments_seconds": {"fig9": 1}, "total_seconds": 1}`), &b); err != nil {
		t.Fatalf("bench record rejected: %v", err)
	}
	if b.Seed != 1 || b.Experiments["fig9"] != 1 {
		t.Fatalf("bench record misparsed: %+v", b)
	}
}
