package harness

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/osint"
	"pmemspec/internal/persist"
	"pmemspec/internal/sim"
	"pmemspec/internal/workload"
)

// referenceTrial is the re-simulating trial the sweep engine replaced,
// kept as the differential oracle: a fresh run from time zero with a
// power failure scheduled as a kernel event at spec.Point (none for
// NoCrash), then §6 recovery and the invariant checks on the machine's
// own persisted image.
func referenceTrial(spec TrialSpec, w workload.Workload) CrashOutcome {
	p := spec.Params
	out := CrashOutcome{Design: spec.Design, Workload: w.Name(),
		CrashAtNS: spec.Point.AtNS, Label: spec.Point.Label}
	cfg := machine.DefaultConfig(spec.Design, p.Threads)
	for _, o := range spec.Opts {
		o(&cfg)
	}
	if syn, ok := w.(*workload.Synthetic); ok {
		syn.SetConfigure(cfg)
	}
	if mb := w.MemBytes(p); mb > cfg.MemBytes {
		cfg.MemBytes = mb
	}
	m, err := machine.New(cfg)
	if err != nil {
		out.Err = err
		return out
	}
	defer m.Release()
	os := osint.New(m)
	rt := fatomic.New(m, persist.ForDesign(spec.Design), os, spec.Mode)
	heap := mem.NewHeap(m.Space(), fatomic.HeapReserve(p.Threads))
	env := &workload.Env{M: m, RT: rt, Heap: heap, P: p}
	if spec.Instrument != nil {
		spec.Instrument(m)
	}
	barrier := sim.NewBarrier(p.Threads)
	setupDone := sim.Forever
	finished := 0
	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		m.Spawn(fmt.Sprintf("worker%d", tid), func(t *machine.Thread) {
			rt.WarmLog(t)
			if tid == 0 {
				w.Setup(env, t)
				m.SyncPersistedToArch()
				setupDone = t.Clock()
			}
			barrier.Wait(t.Sim())
			w.Run(env, t, tid)
			finished++
		})
	}
	spec.Inject.arm(m, os, p.Threads, &out.Injected, func() bool { return finished < p.Threads })
	if spec.Point.AtNS > 0 {
		m.ScheduleCrash(sim.NS(spec.Point.AtNS))
	}
	err = m.Run()
	out.Runtime = rt.Stats
	out.Metrics = runMetrics(m, rt, os)
	switch {
	case errors.Is(err, machine.ErrCrashed):
		out.Crashed = finished < p.Threads
	case err == nil:
	default:
		out.Err = err
		return out
	}
	pm := m.Space().PM
	if out.Crashed && sim.NS(spec.Point.AtNS) < setupDone {
		if _, err := fatomic.Recover(pm, p.Threads); err != nil {
			out.VerifyErr = err
		}
		return out
	}
	rep, err := fatomic.Recover(pm, p.Threads)
	if err != nil {
		out.VerifyErr = fmt.Errorf("recovery failed: %w", err)
		return out
	}
	out.Recovery = rep
	out.VerifyErr = safeVerify(w, pm, 0)
	if !out.Crashed && out.VerifyErr == nil {
		out.VerifyErr = safeVerify(w, m.Space().Arch, rt.Stats.FASEs)
	}
	return out
}

// outcomeKey is a CrashOutcome with its errors replaced by their text,
// so two outcomes compare with reflect.DeepEqual.
type outcomeKey struct {
	CrashOutcome
	Err, VerifyErr string
}

func keyOf(o CrashOutcome) outcomeKey {
	k := outcomeKey{CrashOutcome: o}
	if o.Err != nil {
		k.Err = o.Err.Error()
	}
	if o.VerifyErr != nil {
		k.VerifyErr = o.VerifyErr.Error()
	}
	k.CrashOutcome.Err, k.CrashOutcome.VerifyErr = nil, nil
	return k
}

// checkAgainstReference requires each outcome of one sweep to equal, in
// every field, a reference trial re-simulated to its point. newW builds
// a fresh workload instance per reference run.
func checkAgainstReference(t *testing.T, spec TrialSpec, newW func() workload.Workload, outs []CrashOutcome) {
	t.Helper()
	for _, o := range outs {
		ref := spec
		ref.Point = CrashPoint{AtNS: o.CrashAtNS, Label: o.Label}
		want := referenceTrial(ref, newW())
		if got, want := keyOf(o), keyOf(want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s %s: sweep and re-simulated trial differ:\nsweep: %+v\nref:   %+v",
				spec.Design, spec.Workload, o.Label, got, want)
		}
	}
}

// TestSweepMatchesReference is the differential proof that one live run
// per cell, observed through kernel watches, yields exactly the outcomes
// of re-simulating the cell to each crash point: every campaign row, the
// no-crash row taken from the discovery run included, metrics included.
func TestSweepMatchesReference(t *testing.T) {
	inject := InjectionPlan{StalePeriodNS: 4000, OOOPeriodNS: 7000}
	cases := []struct {
		name  string
		cfg   CampaignConfig
		short bool // also runs under -short
	}{
		{
			// perfbench's crash campaign.
			name: "perfbench-campaign",
			cfg: CampaignConfig{
				Designs:   []machine.Design{machine.IntelX86, machine.HOPS, machine.PMEMSpec},
				Workloads: []string{"queue", "tpcc"},
				Params:    workload.Params{Threads: 4, Ops: 100, DataSize: 64, Seed: 1},
				Points:    12, MaxNS: 400_000, Boundaries: true, BoundaryBudget: 16,
				Inject: inject,
			},
			short: true,
		},
		{
			// Every design × every workload, with small structures
			// (Scale) so that re-simulating each point stays cheap.
			name: "all-designs-injection",
			cfg: CampaignConfig{
				Designs: machine.AllDesigns,
				Params:  workload.Params{Threads: 4, Ops: 30, DataSize: 64, Scale: 256, Seed: 3},
				Points:  4, MaxNS: 150_000, Boundaries: true, BoundaryBudget: 4,
				Inject: inject,
			},
		},
		{
			name: "all-designs-no-injection",
			cfg: CampaignConfig{
				Designs: machine.AllDesigns,
				Params:  workload.Params{Threads: 4, Ops: 30, DataSize: 64, Scale: 256, Seed: 5},
				Points:  4, MaxNS: 150_000, Boundaries: true, BoundaryBudget: 4,
			},
		},
		{
			// No discovery run: the sweep itself ends with the no-crash
			// point and runs the cell to completion.
			name: "uniform-only-injection",
			cfg: CampaignConfig{
				Designs:   []machine.Design{machine.DPO, machine.Strand},
				Workloads: []string{"hashmap", "vacation"},
				Params:    workload.Params{Threads: 2, Ops: 30, DataSize: 64, Scale: 256, Seed: 2},
				Points:    6, MaxNS: 200_000,
				Inject: InjectionPlan{StalePeriodNS: 3000, OOOPeriodNS: 5000, Count: 8},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("re-simulates every crash point")
			}
			uniform, err := UniformPoints(tc.cfg.Points, tc.cfg.MaxNS)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range tc.cfg.cellSpecs() {
				spec.Metrics = true
				outs, derr := tc.cfg.sweepCell(spec, uniform)
				if derr != nil {
					t.Logf("%s/%s: discovery failed, uniform points only: %v", spec.Design, spec.Workload, derr)
				}
				checkAgainstReference(t, spec, func() workload.Workload {
					w, _ := workload.ByName(spec.Workload)
					return w
				}, outs)
			}
		})
	}
}

// failingWorkload is queue with worker 0 panicking once its operations
// are done: the run stops with an error part way through, with the
// other workers still mid-kernel.
type failingWorkload struct {
	workload.Workload
	failedAt *sim.Time
}

func (f failingWorkload) Run(e *workload.Env, th *machine.Thread, tid int) {
	f.Workload.Run(e, th, tid)
	if tid == 0 {
		*f.failedAt = th.Clock()
		panic("worker 0 failed")
	}
}

// TestSweepAfterRunFailure: points past the instant a run fails get its
// error and post-run state, exactly as re-simulated trials of those
// points would, while the earlier points are captured normally.
func TestSweepAfterRunFailure(t *testing.T) {
	var failedAt sim.Time
	newW := func() workload.Workload {
		w, _ := workload.ByName("queue")
		return failingWorkload{Workload: w, failedAt: &failedAt}
	}
	spec := TrialSpec{Design: machine.PMEMSpec, Workload: "queue",
		Params: params("queue", 2, 20, 1),
		Inject: InjectionPlan{StalePeriodNS: 4000}, Metrics: true}
	probe := runSweep(spec, newW(), []CrashPoint{NoCrash}, nil)[0]
	if probe.Err == nil || failedAt == 0 {
		t.Fatalf("the failing workload did not fail: err=%v at %d", probe.Err, failedAt)
	}
	pts, err := UniformPoints(8, 2*failedAt.Nanoseconds())
	if err != nil {
		t.Fatal(err)
	}
	pts = append(pts, NoCrash)
	outs := runSweep(spec, newW(), pts, nil)
	before, after := 0, 0
	for _, o := range outs {
		if o.Err != nil {
			after++
		} else {
			before++
		}
	}
	if before == 0 || after < 2 {
		t.Fatalf("%d points before the failure and %d after; want both sides covered", before, after)
	}
	checkAgainstReference(t, spec, newW, outs)
}
