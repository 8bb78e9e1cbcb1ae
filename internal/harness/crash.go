package harness

import (
	"errors"
	"fmt"
	"sort"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/metrics"
	"pmemspec/internal/osint"
	"pmemspec/internal/persist"
	"pmemspec/internal/sim"
	"pmemspec/internal/workload"
)

// CrashPoint is one labeled crash instant of a fault-injection campaign.
// AtNS ≤ 0 means no power failure: the trial runs to completion (used to
// exercise the misspeculation-injection path end to end).
type CrashPoint struct {
	AtNS  int64  `json:"at_ns"`
	Label string `json:"label"`
}

// NoCrash is the run-to-completion trial point.
var NoCrash = CrashPoint{AtNS: 0, Label: "no-crash"}

// CrashOutcome is the result of one crash-recovery trial.
type CrashOutcome struct {
	Design    machine.Design
	Workload  string
	CrashAtNS int64
	Label     string // crash-point provenance (uniform grid, persist boundary, no-crash)
	Crashed   bool   // false: the run finished before the crash point
	Recovery  fatomic.RecoveryReport
	Runtime   fatomic.Stats  // runtime activity up to the crash (FASEs, aborts, signals)
	Injected  InjectionStats // synthetic misspeculation events raised by the injector
	VerifyErr error          // non-nil: a crash-consistency violation
	Err       error          // non-nil: the trial itself failed to run (machine error, panic)
	// Metrics is the trial's observability snapshot (set whenever the
	// machine ran, even if the trial crashed or failed verification).
	Metrics metrics.Snapshot `json:"-"`
}

// TrialSpec describes one campaign trial: a (design, workload) cell, a
// crash point, the recovery mode, and an optional misspeculation
// injection plan.
type TrialSpec struct {
	Design   machine.Design
	Workload string
	Params   workload.Params
	Point    CrashPoint
	Mode     fatomic.Mode
	Inject   InjectionPlan
	Opts     []Option

	// Instrument, when non-nil, runs on the constructed machine before
	// any thread is spawned. The model checker uses it to install its
	// controlled scheduler and persist observer; anything a bounds
	// discovery run can observe, an Instrument hook can too. The hook and
	// the observers it installs must not use the machine or its images
	// after the trial returns: the trial releases the machine once the
	// outcome is extracted, and its PM images are recycled into later
	// machines.
	Instrument func(*machine.Machine)
}

// RunTrial executes one trial: run the workload (with synthetic
// misspeculations injected per the plan), optionally inject a power
// failure, run the §6 recovery protocol on the surviving persisted
// image, and verify the workload's structural invariants against the
// recovered state.
func RunTrial(spec TrialSpec) (CrashOutcome, error) {
	w, err := workload.ByName(spec.Workload)
	if err != nil {
		return CrashOutcome{Design: spec.Design, Workload: spec.Workload,
			CrashAtNS: spec.Point.AtNS, Label: spec.Point.Label, Err: err}, err
	}
	return runTrial(spec, w, nil)
}

// RunTrialWith executes one trial against a caller-constructed
// workload instance. The litmus corpus (internal/litmus) generates its
// programs at run time, so they are not in the workload name registry;
// spec.Workload is ignored in favor of w.Name().
func RunTrialWith(spec TrialSpec, w workload.Workload) (CrashOutcome, error) {
	return runTrial(spec, w, nil)
}

// RunWithCrash executes the workload, injects a power failure at
// crashAtNS (simulated time), runs the §6 recovery protocol on the
// surviving persisted image, and verifies the workload's structural
// invariants against the recovered state. It is the end-to-end
// crash-consistency check: under every design, a recovered image must
// satisfy the workload invariants.
func RunWithCrash(design machine.Design, w workload.Workload, p workload.Params, crashAtNS int64, opts ...Option) (CrashOutcome, error) {
	spec := TrialSpec{
		Design:   design,
		Workload: w.Name(),
		Params:   p,
		Point:    CrashPoint{AtNS: crashAtNS, Label: fmt.Sprintf("point@%dns", crashAtNS)},
		Opts:     opts,
	}
	return runTrial(spec, w, nil)
}

// runTrial is the shared trial body. bounds, when non-nil, instruments
// the machine to record every persist boundary (discovery runs).
func runTrial(spec TrialSpec, w workload.Workload, bounds *Boundaries) (CrashOutcome, error) {
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
		return out, err
	}
	// Recycle the PM images once the outcome is extracted, so the next
	// trial's machine clears only their dirty prefixes.
	defer m.Release()
	os := osint.New(m)
	rt := fatomic.New(m, persist.ForDesign(spec.Design), os, spec.Mode)
	heap := mem.NewHeap(m.Space(), fatomic.HeapReserve(p.Threads))
	env := &workload.Env{M: m, RT: rt, Heap: heap, P: p}

	if bounds != nil {
		m.SetDrainObserver(func(core int, at sim.Time) {
			bounds.DrainNS = append(bounds.DrainNS, at.Nanoseconds())
		})
		m.SetAdmitObserver(func(admit sim.Time, blk mem.Addr) {
			bounds.AdmitNS = append(bounds.AdmitNS, admit.Nanoseconds())
		})
	}
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
				// Initialization completes durably (see
				// Machine.SyncPersistedToArch) before the measured,
				// crash-exposed kernel begins.
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
		// The crash event always fires (possibly after all workers
		// completed); the run "crashed" only if it interrupted work.
		out.Crashed = finished < p.Threads
	case err == nil:
	default:
		out.Err = err
		return out, err
	}
	if out.Crashed && sim.NS(spec.Point.AtNS) < setupDone {
		// Crash during single-threaded setup: the structures may not
		// exist yet, so only the log protocol is checkable.
		if _, err := fatomic.Recover(m.Space().PM, p.Threads); err != nil {
			out.VerifyErr = err
		}
		return out, nil
	}
	rep, err := fatomic.Recover(m.Space().PM, p.Threads)
	if err != nil {
		// A recovery failure on a recoverable image is itself a
		// crash-consistency violation, not a harness error.
		out.VerifyErr = fmt.Errorf("recovery failed: %w", err)
		return out, nil
	}
	out.Recovery = rep
	out.VerifyErr = safeVerify(w, m.Space().PM, 0)
	if !out.Crashed && out.VerifyErr == nil {
		// The run finished (e.g. the no-crash injection trial): the
		// coherent image must additionally satisfy the op-count-aware
		// invariants — injected misspeculations may abort FASEs but must
		// never lose committed work.
		out.VerifyErr = safeVerify(w, m.Space().Arch, rt.Stats.FASEs)
	}
	return out, nil
}

// safeVerify runs Verify on an image, converting a panic (e.g. a wild
// pointer walked out of the image — itself a consistency violation) into
// an error instead of killing the checker.
func safeVerify(w workload.Workload, img *mem.Image, completedOps uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("verification panicked (wild pointer in recovered image): %v", r)
		}
	}()
	return w.Verify(img, completedOps)
}

// UniformPoints returns up to `points` evenly spaced crash instants in
// (0, maxNS]. Integer division collides when maxNS < points and can
// yield a zero first point; duplicates and non-positive instants are
// dropped rather than swept twice (or rejected by ScheduleCrash).
func UniformPoints(points int, maxNS int64) ([]CrashPoint, error) {
	if points < 1 {
		return nil, fmt.Errorf("harness: need at least one crash point")
	}
	if maxNS < 1 {
		return nil, fmt.Errorf("harness: latest crash point %dns must be positive", maxNS)
	}
	var out []CrashPoint
	last := int64(0)
	for i := 1; i <= points; i++ {
		at := maxNS * int64(i) / int64(points)
		if at <= 0 || at == last {
			continue
		}
		last = at
		out = append(out, CrashPoint{AtNS: at, Label: fmt.Sprintf("uniform@%dns", at)})
	}
	return out, nil
}

// Boundaries is the persist-boundary record of one instrumented run:
// the simulated instants at which writes became durable or a core's
// outstanding persists finished draining. Crash points aligned to these
// boundaries probe exactly the transitions uniform sampling straddles.
type Boundaries struct {
	// DrainNS are durability-barrier completion times (sfence, dfence,
	// join-strand, spec-barrier).
	DrainNS []int64
	// AdmitNS are WPQ admission times — the ADR durability instants.
	AdmitNS []int64
}

// DiscoverBoundaries executes the trial's workload once without a crash
// on an instrumented machine and returns the persist boundaries it
// crossed. The run is deterministic, so a subsequent crash sweep at the
// returned instants replays the same execution up to each crash.
func DiscoverBoundaries(spec TrialSpec) (Boundaries, error) {
	w, err := workload.ByName(spec.Workload)
	if err != nil {
		return Boundaries{}, err
	}
	return DiscoverBoundariesFor(spec, w)
}

// DiscoverBoundariesFor is DiscoverBoundaries against a
// caller-constructed workload instance (see RunTrialWith).
func DiscoverBoundariesFor(spec TrialSpec, w workload.Workload) (Boundaries, error) {
	var b Boundaries
	spec.Point = NoCrash
	out, err := runTrial(spec, w, &b)
	if err != nil {
		return b, err
	}
	if out.VerifyErr != nil {
		return b, fmt.Errorf("boundary discovery run failed verification: %w", out.VerifyErr)
	}
	return b, nil
}

// Points converts the discovered boundaries into labeled crash points:
// one just before, at, and just after each boundary instant. budget, if
// positive, caps the number of boundary *instants* used (deterministic
// stride subsampling — the sweep keeps its full time span, at lower
// density).
func (b Boundaries) Points(budget int) []CrashPoint {
	drains := dedupSortedNS(b.DrainNS)
	admits := dedupSortedNS(b.AdmitNS)
	if budget > 0 {
		// Split the instant budget between the two boundary families,
		// giving slack from an underfull family to the other.
		quotaD := budget / 2
		if len(admits) < budget-quotaD {
			quotaD = budget - len(admits)
		}
		if quotaD < 0 {
			quotaD = 0
		}
		drains = Stride(drains, quotaD)
		admits = Stride(admits, budget-len(drains))
	}
	var out []CrashPoint
	add := func(ts []int64, kind string) {
		for _, t := range ts {
			if t > 1 {
				out = append(out, CrashPoint{AtNS: t - 1, Label: fmt.Sprintf("pre-%s@%dns", kind, t)})
			}
			if t > 0 {
				out = append(out, CrashPoint{AtNS: t, Label: fmt.Sprintf("%s@%dns", kind, t)})
			}
			out = append(out, CrashPoint{AtNS: t + 1, Label: fmt.Sprintf("post-%s@%dns", kind, t)})
		}
	}
	add(drains, "drain")
	add(admits, "admit")
	return out
}

// dedupSortedNS sorts and deduplicates boundary instants, dropping
// non-positive ones.
func dedupSortedNS(ts []int64) []int64 {
	s := append([]int64(nil), ts...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	last := int64(0)
	for _, t := range s {
		if t <= 0 || t == last {
			continue
		}
		last = t
		out = append(out, t)
	}
	return out
}

// Stride deterministically keeps at most n elements of xs (none when
// n ≤ 0), evenly strided across the whole slice, so a capped sweep
// keeps its full span at lower density.
func Stride[T any](xs []T, n int) []T {
	if n <= 0 {
		return nil
	}
	if len(xs) <= n {
		return xs
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}

// MergePoints concatenates crash-point lists, sorts by (instant, label)
// and deduplicates by instant — the first label in sort order wins, so
// the result is independent of input ordering.
func MergePoints(lists ...[]CrashPoint) []CrashPoint {
	var all []CrashPoint
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].AtNS != all[j].AtNS {
			return all[i].AtNS < all[j].AtNS
		}
		return all[i].Label < all[j].Label
	})
	out := all[:0]
	for i, p := range all {
		if i > 0 && p.AtNS == out[len(out)-1].AtNS {
			continue
		}
		out = append(out, p)
	}
	return out
}

// RunTrials executes the trials on the harness worker pool and returns
// their outcomes indexed exactly like specs. A trial that fails to run
// (error or captured panic) is recorded as a failed outcome (Err set)
// rather than aborting the batch, so one broken point cannot hide the
// rest of the sweep.
func (r *Runner) RunTrials(specs []TrialSpec) []CrashOutcome {
	jobs := make([]Job[CrashOutcome], len(specs))
	for i := range specs {
		spec := specs[i]
		jobs[i] = Job[CrashOutcome]{
			Label: fmt.Sprintf("crash: %s / %s / %s", spec.Design, spec.Workload, spec.Point.Label),
			Run:   func() (CrashOutcome, error) { return RunTrial(spec) },
		}
	}
	results := RunAll(jobs, r.Parallel, r.Progress)
	outs := make([]CrashOutcome, len(specs))
	for i := range results {
		outs[i] = results[i].Result
		if results[i].Err != nil {
			// Captured panics leave a zero Result; re-stamp the trial's
			// identity so the report row still names the failing point.
			if outs[i].Workload == "" {
				outs[i].Design = specs[i].Design
				outs[i].Workload = specs[i].Workload
				outs[i].CrashAtNS = specs[i].Point.AtNS
				outs[i].Label = specs[i].Point.Label
			}
			outs[i].Err = results[i].Err
		}
		if r.Metrics != nil {
			r.Metrics.Add(outs[i].Design.String(), outs[i].Workload, outs[i].Metrics)
		}
	}
	return outs
}

// CrashSweep runs RunWithCrash at deduplicated, evenly spaced crash
// points on the runner's worker pool and reports the outcomes, indexed
// by point; any VerifyErr is a crash-consistency violation and any Err
// is a trial that failed to run.
func (r *Runner) CrashSweep(design machine.Design, name string, p workload.Params, points int, maxNS int64, opts ...Option) ([]CrashOutcome, error) {
	pts, err := UniformPoints(points, maxNS)
	if err != nil {
		return nil, err
	}
	if _, err := workload.ByName(name); err != nil {
		return nil, err
	}
	specs := make([]TrialSpec, len(pts))
	for i, pt := range pts {
		specs[i] = TrialSpec{Design: design, Workload: name, Params: p, Point: pt, Opts: opts}
	}
	return r.RunTrials(specs), nil
}

// CrashSweep is the package-level convenience: the sweep runs on a
// GOMAXPROCS-wide pool with deterministic, index-keyed output.
func CrashSweep(design machine.Design, name string, p workload.Params, points int, maxNS int64, opts ...Option) ([]CrashOutcome, error) {
	return (&Runner{}).CrashSweep(design, name, p, points, maxNS, opts...)
}
