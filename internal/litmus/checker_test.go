package litmus_test

import (
	"encoding/json"
	"testing"

	"pmemspec/internal/litmus"
	"pmemspec/internal/mc"
)

// check model-checks the named single-threaded corpus patterns on
// every design at the given worker width.
func check(t *testing.T, workers int, names ...string) mc.Report {
	t.Helper()
	var sub []litmus.Pattern
	for _, name := range names {
		p, ok := litmus.PatternByName(name)
		if !ok {
			t.Fatalf("corpus pattern %q missing", name)
		}
		sub = append(sub, p)
	}
	return mc.RunCorpus(sub, mc.Options{Parallel: workers})
}

// TestLitmusSmallRun drives a handful of corpus patterns end to end
// through the model checker on every design and requires the
// differential contract to hold: no refutations, no mismatches, no
// failures, one schedule per cell — and at least one UNORDERED
// witness, proving the crash-image chain exposes commit-without-data.
func TestLitmusSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	rep := check(t, 0, "bare", "flush-order", "flush-durable", "specbarrier", "sameline-bare")
	for _, c := range rep.Cells {
		if c.Refuted || c.Static != c.Expected || len(c.Failures) > 0 || c.Schedules != 1 || c.Images == 0 {
			t.Errorf("cell %s/%s: refuted=%v static=%v expected=%v schedules=%d images=%d failures=%v",
				c.Pattern, c.Design, c.Refuted, c.Static, c.Expected, c.Schedules, c.Images, c.Failures)
		}
	}
	if !rep.Ok() || rep.Witnessed == 0 || rep.Patterns != 5 || rep.Designs != 5 {
		t.Fatalf("unexpected report: %s", rep.Summary())
	}
}

// TestLitmusReportDeterministic runs the same small campaign at worker
// widths 1 and 4 and requires byte-identical JSON: the report must be
// keyed by cell index, never completion order.
func TestLitmusReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	a, errA := json.Marshal(check(t, 1, "flush-order", "durable-noflush"))
	b, errB := json.Marshal(check(t, 4, "flush-order", "durable-noflush"))
	if errA != nil || errB != nil {
		t.Fatalf("marshal: %v, %v", errA, errB)
	}
	if string(a) != string(b) {
		t.Fatalf("report differs across worker counts:\n  1: %s\n  4: %s", a, b)
	}
}
