package opt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pmemspec/internal/machine"
	"pmemspec/internal/workload"
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

func TestDesignByName(t *testing.T) {
	for _, d := range machine.AllDesigns {
		got, err := DesignByName(d.String())
		if err != nil || got != d {
			t.Errorf("DesignByName(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := DesignByName("NVDIMM-9000"); err == nil {
		t.Error("unknown design accepted")
	}
}

// TestMeasureMatchesHarness covers the inner -measure mode against a
// direct harness run: same cell, same kernel time.
func TestMeasureMatchesHarness(t *testing.T) {
	p := workload.Params{Threads: 2, Ops: 8, DataSize: 64, Seed: 7}
	m1, err := Measure("naivescan", machine.IntelX86, p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Measure("naivescan", machine.IntelX86, p)
	if err != nil {
		t.Fatal(err)
	}
	if m1.KernelNS != m2.KernelNS || m1.Committed != m2.Committed {
		t.Fatalf("Measure is not deterministic: %+v vs %+v", m1, m2)
	}
	if m1.KernelNS <= 0 {
		t.Fatalf("implausible measurement: %+v", m1)
	}
}

// TestCampaignGateGreen covers the inner -campaign mode on the
// unedited tree: the naive workloads must survive their own crash
// campaign before the optimizer is allowed to claim anything about the
// edited ones.
func TestCampaignGateGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("crash campaign in -short mode")
	}
	out, err := Campaign(
		[]string{"naivelog", "naivescan"},
		[]string{"IntelX86", "PMEM-Spec"},
		workload.Params{Threads: 2, Ops: 12, DataSize: 64, Seed: 11},
		CampaignKnobs{},
	)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trials == 0 {
		t.Fatal("campaign ran no trials")
	}
	if out.Violations != 0 || out.Failures != 0 {
		t.Fatalf("baseline campaign not green: %+v", out)
	}
}

// TestOptLoopDeterministic runs the full optimize→simulate→verify loop
// twice over the same tree and requires byte-identical JSON reports —
// the contract the CI opt-loop stage and EXPERIMENTS.md rely on. It
// shells out to `go run` in sandboxes, so it is skipped in -short.
func TestOptLoopDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sandbox subprocess loop in -short mode")
	}
	cfg := Config{
		Root:          repoRoot(t),
		Optimizations: []string{"fencehoist"},
		Workloads:     []string{"naivescan"},
		Designs:       []machine.Design{machine.IntelX86},
		Params:        workload.Params{Threads: 2, Ops: 12, DataSize: 64, Seed: 11},
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("opt loop report is not deterministic:\n%s\nvs\n%s", b1, b2)
	}
	if !r1.Green() {
		t.Fatalf("loop not green: %s", b1)
	}
	var fh *OptReport
	for i := range r1.Optimizations {
		if r1.Optimizations[i].Name == "fencehoist" {
			fh = &r1.Optimizations[i]
		}
	}
	if fh == nil || fh.EditsApplied == 0 {
		t.Fatalf("fencehoist applied no edits: %s", b1)
	}
	saved := int64(0)
	for _, c := range fh.Results {
		saved += c.Delta
	}
	if saved <= 0 {
		t.Fatalf("fencehoist reported no simulated savings: %s", b1)
	}
}
