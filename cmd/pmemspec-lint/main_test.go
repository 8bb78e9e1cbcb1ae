package main

import (
	"strings"
	"testing"

	"pmemspec/internal/analysis"
)

func TestSelectAnalyzersDefaultSet(t *testing.T) {
	got, err := selectAnalyzers("")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(analysis.Analyzers()) {
		t.Fatalf("default set has %d analyzers, want %d", len(got), len(analysis.Analyzers()))
	}
	for _, a := range got {
		if a.Name == "fencehoist" {
			t.Fatal("optimization analyzers must not be in the default set")
		}
	}
}

func TestSelectAnalyzersByName(t *testing.T) {
	got, err := selectAnalyzers("persistorder, fencehoist")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "persistorder" || got[1].Name != "fencehoist" {
		t.Fatalf("selectAnalyzers kept wrong set: %v", got)
	}
}

// TestSelectAnalyzersUnknownName pins the satellite contract: an
// unknown -c name must error (the caller exits non-zero) and the error
// must carry the full sorted valid set so the user can self-correct.
func TestSelectAnalyzersUnknownName(t *testing.T) {
	_, err := selectAnalyzers("persistorder,nosuch")
	if err == nil {
		t.Fatal("unknown analyzer name must be an error, not silently skipped")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"nosuch"`) {
		t.Fatalf("error does not name the offender: %s", msg)
	}
	var names []string
	for _, a := range analysis.Analyzers() {
		names = append(names, a.Name)
	}
	for _, a := range analysis.OptAnalyzers() {
		names = append(names, a.Name)
	}
	for _, n := range names {
		if !strings.Contains(msg, n) {
			t.Errorf("error omits valid analyzer %q: %s", n, msg)
		}
	}
	// Sorted: fencehoist (opt) must precede persistflow (default).
	if strings.Index(msg, "fencehoist") > strings.Index(msg, "persistflow") {
		t.Errorf("valid set not sorted: %s", msg)
	}
}

func TestSelectAnalyzersEmptySelection(t *testing.T) {
	if _, err := selectAnalyzers(" , "); err == nil {
		t.Fatal("an all-blank -c must error")
	}
}
