package harness

import (
	"bytes"
	"testing"

	"pmemspec/internal/machine"
	"pmemspec/internal/metrics"
)

// metricsGrid runs every design over one small workload at the given
// pool width and returns the serialized metrics grid plus the grid
// itself.
func metricsGrid(t *testing.T, parallel int) ([]byte, *metrics.Grid) {
	t.Helper()
	r := &Runner{
		Parallel: parallel,
		Metrics:  metrics.NewGrid(),
		Timeline: func(d machine.Design, name string) bool { return d == machine.PMEMSpec },
	}
	var jobs []Job[Result]
	for _, d := range machine.AllDesigns {
		jobs = append(jobs, r.benchJob("metrics: "+d.String(), d, "queue", params("queue", 2, 30, 7)))
	}
	results := RunAll(jobs, r.Parallel, r.Progress)
	if err := firstError(results); err != nil {
		t.Fatal(err)
	}
	r.collect(results)
	var buf bytes.Buffer
	if err := r.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if len(r.Timelines) != 1 || r.Timelines[0].Name != "PMEM-Spec/queue" {
		t.Fatalf("timeline predicate selected %d timelines (%v), want PMEM-Spec/queue only", len(r.Timelines), r.Timelines)
	}
	if r.Timelines[0].TL.Len() == 0 {
		t.Fatal("selected timeline recorded no events")
	}
	return buf.Bytes(), r.Metrics
}

// TestMetricsParallelDeterminism is the tentpole acceptance check: the
// metrics grid must serialize byte-identically whether the runs execute
// on one worker or eight, and every (design, workload) cell must carry
// nonzero persist-path activity (WPQ admissions everywhere; speculation
// buffer and persist-path messages under PMEM-Spec, the only design
// with those structures).
func TestMetricsParallelDeterminism(t *testing.T) {
	b1, _ := metricsGrid(t, 1)
	b8, grid := metricsGrid(t, 8)
	if !bytes.Equal(b1, b8) {
		t.Fatalf("metrics grid differs between -parallel 1 and -parallel 8:\n%s\nvs\n%s", b1, b8)
	}
	cells := grid.Cells()
	if len(cells) != len(machine.AllDesigns) {
		t.Fatalf("got %d cells, want %d", len(cells), len(machine.AllDesigns))
	}
	nonzero := func(cell metrics.GridCell, component, name string) {
		t.Helper()
		m, ok := cell.Metrics.Get(component, name)
		if !ok || (m.Value == 0 && m.Count == 0) {
			t.Errorf("cell %s/%s: %s.%s is zero or missing", cell.Design, cell.Workload, component, name)
		}
	}
	for _, cell := range cells {
		nonzero(cell, "machine", "stores")
		nonzero(cell, "wpq", "accepts")
		nonzero(cell, "wpq", "occupancy")
		nonzero(cell, "fatomic", "fases")
		if cell.Design == machine.PMEMSpec.String() {
			nonzero(cell, "specbuf", "persists")
			nonzero(cell, "ppath", "sent")
			nonzero(cell, "ppath", "delivered")
		}
	}
}

// TestTimelineTraceDeterministic renders the recorded PMEM-Spec timeline
// as a Chrome trace twice (from two independent runs) and requires
// byte-identical output.
func TestTimelineTraceDeterministic(t *testing.T) {
	render := func() []byte {
		r := &Runner{Metrics: metrics.NewGrid(),
			Timeline: func(d machine.Design, name string) bool { return true }}
		jobs := []Job[Result]{r.benchJob("tl", machine.PMEMSpec, "queue", params("queue", 2, 30, 7))}
		results := RunAll(jobs, 1, nil)
		if err := firstError(results); err != nil {
			t.Fatal(err)
		}
		r.collect(results)
		var buf bytes.Buffer
		if err := metrics.WriteTrace(&buf, r.Timelines); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("trace output differs across identical runs")
	}
}

// TestCrashTrialMetrics: a crash point publishes its snapshot, taken
// mid-run at the crash instant, and the sweep adds it to the runner's
// metrics grid.
func TestCrashTrialMetrics(t *testing.T) {
	r := &Runner{Metrics: metrics.NewGrid()}
	outs, err := r.CrashSweep(machine.PMEMSpec, "queue", params("queue", 2, 40, 7), 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err != nil {
		t.Fatal(outs[0].Err)
	}
	if len(outs[0].Metrics) == 0 {
		t.Fatal("crash trial carried no metrics snapshot")
	}
	cell := r.Metrics.Cell(machine.PMEMSpec.String(), "queue")
	if m, ok := cell.Get("machine", "stores"); !ok || m.Value == 0 {
		t.Fatal("crash-trial grid cell missing machine.stores")
	}
}
