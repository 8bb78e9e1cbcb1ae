package harness

import (
	"bytes"
	"reflect"
	"testing"

	"pmemspec/internal/machine"
	"pmemspec/internal/metrics"
	"pmemspec/internal/workload"
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

// TestTrialMetricsOnRequest: a trial that does not ask for a metrics
// snapshot gets none, and otherwise the same outcome, field for field,
// as one that asks, at crash points in setup and in the kernel and at
// the end of the run. A campaign without a metrics grid likewise writes
// the report of one with a grid.
func TestTrialMetricsOnRequest(t *testing.T) {
	spec := TrialSpec{Design: machine.PMEMSpec, Workload: "queue",
		Params: params("queue", 2, 40, 7),
		Inject: InjectionPlan{StalePeriodNS: 3_000, OOOPeriodNS: 5_000}}
	// The queue run's setup ends near 220 µs (see
	// TestRecycledImagesLeakNoState).
	pts := []CrashPoint{{AtNS: 100_000, Label: "setup"}, {AtNS: 225_000, Label: "kernel"}, NoCrash}
	sweep := func(spec TrialSpec) []CrashOutcome {
		w, err := workload.ByName(spec.Workload)
		if err != nil {
			t.Fatal(err)
		}
		return runSweep(spec, w, pts, nil)
	}
	plain := sweep(spec)
	spec.Metrics = true
	asked := sweep(spec)
	for i := range plain {
		if plain[i].Metrics != nil {
			t.Errorf("%s: a trial that did not ask got a snapshot", plain[i].Label)
		}
		if len(asked[i].Metrics) == 0 {
			t.Errorf("%s: a trial that asked got no snapshot", asked[i].Label)
		}
		asked[i].Metrics = nil
		if got, want := keyOf(plain[i]), keyOf(asked[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: outcomes differ without the snapshot:\nplain: %+v\nasked: %+v", plain[i].Label, got, want)
		}
	}

	cfg := smallCampaign()
	cfg.Designs = []machine.Design{machine.PMEMSpec}
	without, err := (&Runner{}).RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	with, err := (&Runner{Metrics: metrics.NewGrid()}).RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(without, with) {
		t.Error("a campaign without a metrics grid wrote another report than one with a grid")
	}
}
