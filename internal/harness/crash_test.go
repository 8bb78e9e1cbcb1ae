package harness

import (
	"reflect"
	"strings"
	"testing"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/workload"
)

// TestCrashSweepAllDesigns is the cross-design crash-consistency
// integration: inject power failures at a sweep of points through real
// workload runs, recover, and verify structural invariants on the
// recovered persisted image. Any violation means a design's ordering
// semantics or the recovery protocol is broken.
func TestCrashSweepAllDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	cases := []string{"arrayswap", "queue", "tpcc-mix"}
	for _, d := range machine.Designs {
		d := d
		for _, name := range cases {
			name := name
			t.Run(d.String()+"/"+name, func(t *testing.T) {
				p := workload.Params{Threads: 2, Ops: 60, DataSize: 64, Seed: 9}
				outs, err := CrashSweep(d, name, p, 8, 300_000)
				if err != nil {
					t.Fatal(err)
				}
				crashed := 0
				for _, o := range outs {
					if o.Crashed {
						crashed++
					}
					if o.Err != nil {
						t.Errorf("crash@%dns failed to run: %v", o.CrashAtNS, o.Err)
					}
					if o.VerifyErr != nil {
						t.Errorf("crash@%dns: %v", o.CrashAtNS, o.VerifyErr)
					}
				}
				if crashed == 0 {
					t.Error("no crash point landed mid-run; widen the sweep")
				}
			})
		}
	}
}

// TestCrashSweepRBTree gives the trickiest structure (rotations inside
// FASEs) its own deeper sweep on the paper's design.
func TestCrashSweepRBTree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	// Scale 256 keeps setup short; the long kernel (300 ops) gives the
	// sweep a wide window of in-flight FASEs to hit.
	p := workload.Params{Threads: 2, Ops: 300, DataSize: 64, Scale: 256, Seed: 4}
	outs, err := CrashSweep(machine.PMEMSpec, "rbtree", p, 16, 900_000)
	if err != nil {
		t.Fatal(err)
	}
	rolled := 0
	for _, o := range outs {
		if o.VerifyErr != nil {
			t.Errorf("crash@%dns: %v", o.CrashAtNS, o.VerifyErr)
		}
		rolled += o.Recovery.ThreadsRolledBack
	}
	if rolled == 0 {
		t.Error("no FASE was ever caught in flight; sweep too coarse to be meaningful")
	}
}

// TestRunWithCrashAfterCompletion: a crash point past the end of the run
// must verify cleanly with nothing to roll back.
func TestRunWithCrashAfterCompletion(t *testing.T) {
	w, _ := workload.ByName("arrayswap")
	p := workload.Params{Threads: 1, Ops: 5, DataSize: 64, Seed: 1}
	o, err := RunWithCrash(machine.PMEMSpec, w, p, 1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if o.Crashed {
		t.Error("run did not finish before the distant crash point")
	}
	if o.VerifyErr != nil {
		t.Errorf("verify: %v", o.VerifyErr)
	}
	if o.Recovery.ThreadsRolledBack != 0 {
		t.Error("completed run had in-flight FASEs")
	}
}

// TestRunWithCrashDuringSetup: a crash inside single-threaded setup must
// take the log-protocol-only branch — no invariant check on structures
// that may not exist yet, and nothing reported as recovered.
func TestRunWithCrashDuringSetup(t *testing.T) {
	w, _ := workload.ByName("rbtree")
	p := workload.Params{Threads: 2, Ops: 50, DataSize: 64, Scale: 4096, Seed: 3}
	o, err := RunWithCrash(machine.PMEMSpec, w, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Crashed {
		t.Fatal("crash at 50ns did not interrupt setup")
	}
	if o.VerifyErr != nil {
		t.Errorf("setup-crash branch must only check the log protocol: %v", o.VerifyErr)
	}
	if o.Recovery != (fatomic.RecoveryReport{}) {
		t.Error("setup-crash branch must not report recovery work")
	}
}

// panicVerifyWorkload is a stub whose Verify dereferences a wild pointer
// (modeled as a panic) — the checker must convert that into an error.
type panicVerifyWorkload struct{}

func (panicVerifyWorkload) Name() string                                     { return "panic-verify" }
func (panicVerifyWorkload) Description() string                              { return "test stub" }
func (panicVerifyWorkload) MemBytes(p workload.Params) uint64                { return 0 }
func (panicVerifyWorkload) Setup(e *workload.Env, th *machine.Thread)        {}
func (panicVerifyWorkload) Run(e *workload.Env, th *machine.Thread, tid int) {}
func (panicVerifyWorkload) Verify(img *mem.Image, completedOps uint64) error {
	panic("wild pointer at 0xdead")
}

// TestSafeVerifyPanic: a panicking Verify is a consistency violation,
// not a harness crash.
func TestSafeVerifyPanic(t *testing.T) {
	err := safeVerify(panicVerifyWorkload{}, nil, 0)
	if err == nil {
		t.Fatal("panic in Verify was not converted to an error")
	}
	if !strings.Contains(err.Error(), "0xdead") {
		t.Errorf("converted error lost the panic value: %v", err)
	}
}

// TestUniformPoints: integer division must not produce zero or duplicate
// crash points when maxNS < points, and invalid spans are rejected.
func TestUniformPoints(t *testing.T) {
	pts, err := UniformPoints(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || len(pts) > 4 {
		t.Fatalf("10 points over 4ns yielded %d points, want 1..4", len(pts))
	}
	last := int64(0)
	for _, p := range pts {
		if p.AtNS <= last {
			t.Errorf("point %+v not strictly increasing after %d", p, last)
		}
		last = p.AtNS
	}
	if pts[len(pts)-1].AtNS != 4 {
		t.Errorf("sweep must keep its full span, last point %d want 4", pts[len(pts)-1].AtNS)
	}
	if _, err := UniformPoints(0, 100); err == nil {
		t.Error("zero points accepted")
	}
	if _, err := UniformPoints(4, 0); err == nil {
		t.Error("non-positive span accepted")
	}
}

// TestRunTrialsRecordsErrors: a trial that cannot run returns its
// error in an outcome that keeps the trial's identity, so a report row
// still names the failing point, and the next trial runs normally.
func TestRunTrialsRecordsErrors(t *testing.T) {
	broken := TrialSpec{Design: machine.PMEMSpec, Workload: "no-such-workload",
		Params: workload.Params{Threads: 1, Ops: 2, DataSize: 64, Seed: 1},
		Point:  CrashPoint{AtNS: 1000, Label: "uniform@1000ns"}}
	out, err := RunTrial(broken)
	if err == nil || out.Err == nil {
		t.Error("broken trial did not record its error")
	}
	if out.Workload != "no-such-workload" || out.Label != "uniform@1000ns" {
		t.Errorf("failed outcome lost its identity: %+v", out)
	}
	healthy := TrialSpec{Design: machine.PMEMSpec, Workload: "arrayswap",
		Params: workload.Params{Threads: 1, Ops: 2, DataSize: 64, Seed: 1},
		Point:  NoCrash}
	if out, err := RunTrial(healthy); err != nil || out.VerifyErr != nil {
		t.Errorf("healthy trial after a broken one: err=%v verify=%v", err, out.VerifyErr)
	}
}

// TestRecycledImagesLeakNoState: every trial releases its machine and
// its scratch copy of PM, so the next trial's images are recycled
// arrays that still hold the previous run's bytes until cleared. Run
// one after another, a small crash trial (queue, mid-run crash with
// injection, so recovery reads the logs) run after a large-footprint
// one (tpcc) must reproduce its outcome as the first trial, metrics
// included. The tpcc trial crashes on IntelX86, so its two images
// differ wherever it had not flushed: a stale byte leaking into queue's
// images turns a PMEM-Spec fetch of a fresh block into a stale one,
// which moves the metrics.
func TestRecycledImagesLeakNoState(t *testing.T) {
	queue := TrialSpec{Design: machine.PMEMSpec, Workload: "queue",
		Params: params("queue", 2, 40, 7),
		Point:  CrashPoint{AtNS: 225_000, Label: "mid"},
		Inject: InjectionPlan{StalePeriodNS: 3_000, OOOPeriodNS: 5_000}, Metrics: true}
	tpcc := TrialSpec{Design: machine.IntelX86, Workload: "tpcc",
		Params: params("tpcc", 4, 100, 7), Point: CrashPoint{AtNS: 200_000, Label: "early"}}
	run := func(specs ...TrialSpec) []CrashOutcome {
		var outs []CrashOutcome
		for _, s := range specs {
			o, _ := RunTrial(s)
			outs = append(outs, o)
		}
		return outs
	}
	first := run(queue, tpcc)
	after := run(tpcc, queue)
	for _, o := range append(first, after...) {
		if o.Err != nil || o.VerifyErr != nil || !o.Crashed {
			t.Fatalf("%s trial: err=%v verify=%v crashed=%v", o.Workload, o.Err, o.VerifyErr, o.Crashed)
		}
	}
	if first[0].Recovery.ThreadsRolledBack == 0 {
		t.Fatalf("queue trial must crash with a section in flight: %+v", first[0].Recovery)
	}
	if !reflect.DeepEqual(first[0], after[1]) {
		t.Errorf("queue trial after tpcc differs from queue first:\nfirst: %+v\nafter: %+v", first[0], after[1])
	}
}

// TestRecycledCachesLeakNoState: a grid cell releases its machine's
// caches full of valid and dirty lines, and the next run's machine
// takes them from the free list. A small PMEM-Spec crash trial
// run after a large-footprint cell (8-thread tpcc, whose heap overlaps
// the trial's) must reproduce its first-run outcome, metrics included:
// a line surviving the recycle turns one of the trial's PM fetches into
// a cache hit, which moves the cache and fetch counters.
func TestRecycledCachesLeakNoState(t *testing.T) {
	queue := TrialSpec{Design: machine.PMEMSpec, Workload: "queue",
		Params: params("queue", 2, 40, 7),
		Point:  CrashPoint{AtNS: 225_000, Label: "mid"}, Metrics: true}
	first, err := RunTrial(queue)
	if err != nil || first.VerifyErr != nil || !first.Crashed {
		t.Fatalf("first trial: err=%v verify=%v crashed=%v", err, first.VerifyErr, first.Crashed)
	}
	tpcc, err := workload.ByName("tpcc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(machine.PMEMSpec, tpcc, params("tpcc", 8, 100, 7)); err != nil {
		t.Fatal(err)
	}
	after, _ := RunTrial(queue)
	if !reflect.DeepEqual(first, after) {
		t.Errorf("queue trial after a tpcc cell differs from queue first:\nfirst: %+v\nafter: %+v", first, after)
	}
}

// TestDiscoverBoundaries: an instrumented run must observe both boundary
// families, and Points must label and budget them deterministically.
func TestDiscoverBoundaries(t *testing.T) {
	spec := TrialSpec{Design: machine.PMEMSpec, Workload: "arrayswap",
		Params: workload.Params{Threads: 2, Ops: 10, DataSize: 64, Seed: 1}}
	b, err := DiscoverBoundaries(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.DrainNS) == 0 {
		t.Error("no durability-barrier drains observed")
	}
	if len(b.AdmitNS) == 0 {
		t.Error("no WPQ admissions observed")
	}
	pts := b.Points(6)
	if len(pts) == 0 || len(pts) > 3*6 {
		t.Fatalf("budget 6 instants yielded %d points, want 1..18", len(pts))
	}
	var drainLbl, admitLbl bool
	for _, p := range pts {
		if p.AtNS <= 0 {
			t.Errorf("non-positive boundary point %+v", p)
		}
		if strings.Contains(p.Label, "drain@") {
			drainLbl = true
		}
		if strings.Contains(p.Label, "admit@") {
			admitLbl = true
		}
	}
	if !drainLbl || !admitLbl {
		t.Errorf("points missing a boundary family: drain=%v admit=%v", drainLbl, admitLbl)
	}
	again, err := DiscoverBoundaries(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.DrainNS) != len(b.DrainNS) || len(again.AdmitNS) != len(b.AdmitNS) {
		t.Error("boundary discovery is not deterministic")
	}
}

// TestMergePoints: merging dedupes by instant and is order-independent.
func TestMergePoints(t *testing.T) {
	a := []CrashPoint{{10, "uniform@10ns"}, {20, "uniform@20ns"}}
	b := []CrashPoint{{10, "drain@10ns"}, {15, "admit@15ns"}}
	m1 := MergePoints(a, b)
	m2 := MergePoints(b, a)
	if len(m1) != 3 {
		t.Fatalf("got %d merged points, want 3", len(m1))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Errorf("merge depends on input order: %+v vs %+v", m1[i], m2[i])
		}
	}
	if m1[0].Label != "drain@10ns" {
		t.Errorf("dedupe must keep the first label in sort order, got %q", m1[0].Label)
	}
}
