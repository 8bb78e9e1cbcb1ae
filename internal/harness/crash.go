package harness

import (
	"errors"
	"fmt"
	"slices"
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
	// Metrics is the trial's observability snapshot, taken only when its
	// TrialSpec asked for one (set whenever the machine ran, even if the
	// trial crashed or failed verification).
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
	// Metrics asks for each outcome's observability snapshot
	// (CrashOutcome.Metrics). A snapshot of a small run costs about as
	// much as the run itself, so only callers that read it ask: the
	// campaign and CrashSweep do when their runner has a metrics grid;
	// the model checker never does.
	Metrics bool
}

// errSwept stops a sweep's run once its last crash point is captured.
var errSwept = errors.New("harness: every crash point captured")

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
	return runTrial(spec, w)
}

// RunTrialWith executes one trial against a caller-constructed
// workload instance. The litmus corpus (internal/litmus) generates its
// programs at run time, so they are not in the workload name registry;
// spec.Workload is ignored in favor of w.Name().
func RunTrialWith(spec TrialSpec, w workload.Workload) (CrashOutcome, error) {
	return runTrial(spec, w)
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
	return runTrial(spec, w)
}

// runTrial is a one-point sweep at spec.Point; the error is the
// outcome's Err.
func runTrial(spec TrialSpec, w workload.Workload) (CrashOutcome, error) {
	out := runSweep(spec, w, []CrashPoint{spec.Point}, nil)[0]
	return out, out.Err
}

// runSweep is the trial engine. It runs spec's cell once, live and with
// the injection plan armed, and returns one outcome per point of pts.
// The points must ascend; a NoCrash point may only come last.
//
// A kernel watch at each crash instant captures the point. It records
// the runtime and injection counters so far, and the metrics snapshot
// if spec asks for one. It then runs §6 recovery and the invariant
// checks on a copy of the persisted image, which is what a power
// failure there leaves: a crash only discards volatile state. A watch
// does not perturb dispatch, so each outcome equals that of a run
// re-simulated to its point and crashed there.
//
// The run stops after the last crash point, unless a NoCrash point runs
// it to completion. If the run fails first, the points it never reached
// get its error and post-run state, as re-simulated trials would.
// bounds, when non-nil, records every persist boundary (discovery
// runs).
func runSweep(spec TrialSpec, w workload.Workload, pts []CrashPoint, bounds *Boundaries) []CrashOutcome {
	p := spec.Params
	outs := make([]CrashOutcome, len(pts))
	for i, pt := range pts {
		outs[i] = CrashOutcome{Design: spec.Design, Workload: w.Name(), CrashAtNS: pt.AtNS, Label: pt.Label}
	}
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
		for i := range outs {
			outs[i].Err = err
		}
		return outs
	}
	// Recycle the PM images once the outcomes are extracted, so the
	// next run's machine clears only their written extents.
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
	_, logFree := w.(workload.LogFree)
	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		m.Spawn(fmt.Sprintf("worker%d", tid), func(t *machine.Thread) {
			if !logFree {
				rt.WarmLog(t)
			}
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
	var injected InjectionStats
	spec.Inject.arm(m, os, p.Threads, &injected, func() bool { return finished < p.Threads })

	counters := func(o *CrashOutcome) {
		o.Runtime = rt.Stats
		o.Injected = injected
		if spec.Metrics {
			o.Metrics = runMetrics(m, rt, os)
		}
	}
	var img *mem.Image // the run's scratch copy of the persisted image
	defer func() {
		if img != nil {
			img.Release()
		}
	}()
	k := m.Kernel()
	captured := 0
	for i := range pts {
		if pts[i].AtNS <= 0 {
			break // NoCrash: run to completion
		}
		o, at := &outs[i], sim.NS(pts[i].AtNS)
		k.Watch(at, func() {
			counters(o)
			// The run "crashed" only if the power failure interrupted
			// work: a point past the end finds every worker done.
			o.Crashed = finished < p.Threads
			if img == nil {
				img = m.Space().PM.Clone()
			} else {
				img.CopyFrom(m.Space().PM)
			}
			o.recoverAndVerify(w, img, m.Space().Arch, p.Threads, o.Crashed && at < setupDone)
			if captured++; captured == len(pts) {
				k.Stop(errSwept)
			}
		})
	}
	err = m.Run()
	switch {
	case errors.Is(err, errSwept):
	case err != nil:
		for i := captured; i < len(outs); i++ {
			counters(&outs[i])
			outs[i].Err = err
		}
	default:
		// The run completed; only the NoCrash point is left, and the
		// machine is done, so recovery may work on PM in place.
		o := &outs[len(outs)-1]
		counters(o)
		o.recoverAndVerify(w, m.Space().PM, m.Space().Arch, p.Threads, false)
	}
	return outs
}

// recoverAndVerify runs the §6 recovery protocol on img, the persisted
// image at o's instant (which it modifies), and checks the workload's
// invariants on the result. Violations go to o.VerifyErr; a panic in
// recovery becomes o.Err. inSetup marks a crash during the
// single-threaded setup, where the structures may not exist yet, so
// only the log protocol is checkable.
func (o *CrashOutcome) recoverAndVerify(w workload.Workload, img, arch *mem.Image, threads int, inSetup bool) {
	defer func() {
		if r := recover(); r != nil {
			o.Err = fmt.Errorf("harness: recovery at %s panicked: %v", o.Label, r)
		}
	}()
	if inSetup {
		if _, err := fatomic.Recover(img, threads); err != nil {
			o.VerifyErr = err
		}
		return
	}
	rep, err := fatomic.Recover(img, threads)
	if err != nil {
		// A recovery failure on a recoverable image is itself a
		// crash-consistency violation, not a harness error.
		o.VerifyErr = fmt.Errorf("recovery failed: %w", err)
		return
	}
	o.Recovery = rep
	o.VerifyErr = safeVerify(w, img, 0)
	if !o.Crashed && o.VerifyErr == nil {
		// The run finished (e.g. the no-crash injection trial): the
		// coherent image must additionally satisfy the op-count-aware
		// invariants — injected misspeculations may abort FASEs but must
		// never lose committed work.
		o.VerifyErr = safeVerify(w, arch, o.Runtime.FASEs)
	}
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
// dropped rather than swept twice (or read as the no-crash point).
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
	b, out := discover(spec, w)
	return b, discoveryErrOf(out)
}

// discover runs spec's cell to completion on an instrumented machine.
// The boundary observers only append, so the run is the cell's no-crash
// trial, and its outcome is that trial's.
func discover(spec TrialSpec, w workload.Workload) (Boundaries, CrashOutcome) {
	var b Boundaries
	out := runSweep(spec, w, []CrashPoint{NoCrash}, &b)[0]
	return b, out
}

// discoveryErrOf is why a discovery run's boundaries are unusable: the
// run failed, or its final image failed verification.
func discoveryErrOf(out CrashOutcome) error {
	if out.Err != nil {
		return out.Err
	}
	if out.VerifyErr != nil {
		return fmt.Errorf("boundary discovery run failed verification: %w", out.VerifyErr)
	}
	return nil
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
	s := slices.Clone(ts)
	slices.Sort(s)
	s = slices.Compact(s)
	i, _ := slices.BinarySearch(s, 1)
	return s[i:]
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

// CrashSweep runs one live sweep of the cell over deduplicated, evenly
// spaced crash points and reports the outcomes, indexed by point; any
// VerifyErr is a crash-consistency violation and any Err is a point the
// run failed to reach.
func (r *Runner) CrashSweep(design machine.Design, name string, p workload.Params, points int, maxNS int64, opts ...Option) ([]CrashOutcome, error) {
	pts, err := UniformPoints(points, maxNS)
	if err != nil {
		return nil, err
	}
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	if r.Progress != nil {
		r.Progress(fmt.Sprintf("crash: %s / %s", design, name))
	}
	outs := runSweep(TrialSpec{Design: design, Workload: name, Params: p, Opts: opts, Metrics: r.Metrics != nil}, w, pts, nil)
	for _, o := range outs {
		r.Metrics.Add(o.Design.String(), o.Workload, o.Metrics)
	}
	return outs, nil
}

// CrashSweep is the package-level convenience on a default Runner.
func CrashSweep(design machine.Design, name string, p workload.Params, points int, maxNS int64, opts ...Option) ([]CrashOutcome, error) {
	return (&Runner{}).CrashSweep(design, name, p, points, maxNS, opts...)
}
