package mc

import (
	"encoding/json"
	"fmt"
	"testing"

	"pmemspec/internal/analysis/dataflow"
	"pmemspec/internal/harness"
	"pmemspec/internal/litmus"
	"pmemspec/internal/machine"
	"pmemspec/internal/workload"
)

func mustPattern(t *testing.T, name string) litmus.Pattern {
	t.Helper()
	for _, p := range Corpus() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("pattern %q missing", name)
	return litmus.Pattern{}
}

// referenceImages is the default-dispatch reference the model checker
// is tested against. It discovers the persist boundaries of one run of
// p on md under the kernel's default (clock, id) policy, crashes a
// fresh run at each boundary-aligned crash point (at most budget
// boundary instants; 0: all), and returns each crashed image's
// variable vector. The vectors are read at the discovery run's
// addresses (allocation is deterministic), so a crash before Setup
// allocated the variables still reads their slots. A trial error or a
// torn recovered image is an error.
//
// The trial releases its machine when it returns, so the image is
// captured inside the run: seeded from the fresh machine, then re-read
// at every persist-observer notification. The persisted image changes
// only at those sites and a crash only discards volatile state, so the
// last read is the crashed image. Recovery leaves the variables alone:
// litmus programs log no failure-atomic sections.
func referenceImages(p litmus.Pattern, md machine.Design, budget int) ([][]uint64, error) {
	spec := harness.TrialSpec{
		Design: md,
		Params: workload.Params{Threads: p.NThreads(), Ops: 1, Seed: 1},
	}
	layout := litmus.NewProgram(p)
	bounds, err := harness.DiscoverBoundariesFor(spec, layout)
	if err != nil {
		return nil, err
	}
	var images [][]uint64
	for _, pt := range bounds.Points(budget) {
		var vec []uint64
		spec.Point = pt
		spec.Instrument = func(m *machine.Machine) {
			vec = layout.Vars(m.Space().PM)
			m.SetPersistObserver(func() { vec = layout.Vars(m.Space().PM) })
		}
		out, err := harness.RunTrialWith(spec, litmus.NewProgram(p))
		if err == nil {
			err = out.VerifyErr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pt.Label, err)
		}
		images = append(images, vec)
	}
	return images, nil
}

// refCell is one cell's reference crash images.
type refCell struct {
	p      litmus.Pattern
	pair   litmus.DesignPair
	images [][]uint64
}

// referenceSweep runs referenceImages over every patterns × pairs cell
// on the worker pool, in cell order.
func referenceSweep(t *testing.T, patterns []litmus.Pattern, pairs []litmus.DesignPair, budget int) []refCell {
	t.Helper()
	var jobs []harness.Job[refCell]
	for _, p := range patterns {
		for _, pr := range pairs {
			p, pr := p, pr
			jobs = append(jobs, harness.Job[refCell]{
				Label: fmt.Sprintf("reference %s/%s", p.Name, pr.Order),
				Run: func() (refCell, error) {
					images, err := referenceImages(p, pr.Machine, budget)
					return refCell{p, pr, images}, err
				},
			})
		}
	}
	var cells []refCell
	for i, jr := range harness.RunAll(jobs, 0, nil) {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jobs[i].Label, jr.Err)
		}
		cells = append(cells, jr.Result)
	}
	return cells
}

// TestEnumerateReduction pins the sleep-set layer on the simplest
// cell: mt-cross-bare is two single-store threads on distinct blocks.
// On IntelX86 the stores are pure cache writes — independent — so the
// two interleavings collapse to one schedule; on DPO both stores enter
// the persist path, conflict, and both orders must run.
func TestEnumerateReduction(t *testing.T) {
	p := mustPattern(t, "mt-cross-bare")
	x86 := enumerate(p, dataflow.DesignX86, 0)
	if x86.Bound != 2 || len(x86.Scripts) != 1 {
		t.Errorf("x86: got %d schedules (bound %d), want 1 (bound 2)", len(x86.Scripts), x86.Bound)
	}
	dpo := enumerate(p, dataflow.DesignDPO, 0)
	if dpo.Bound != 2 || len(dpo.Scripts) != 2 {
		t.Errorf("DPO: got %d schedules (bound %d), want 2 (bound 2)", len(dpo.Scripts), dpo.Bound)
	}
}

// TestEnumerateCoversAllOps checks every script releases every op of
// every thread exactly once, for every corpus pattern × design, that
// the explored count never exceeds the unreduced bound, and that a
// single-threaded pattern is one schedule of bound 1.
func TestEnumerateCoversAllOps(t *testing.T) {
	for _, p := range Corpus() {
		total := 0
		perThread := make([]int, p.NThreads())
		for tid := 0; tid < p.NThreads(); tid++ {
			perThread[tid] = len(p.ThreadOps(tid))
			total += perThread[tid]
		}
		for _, d := range dataflow.OrderDesigns() {
			e := enumerate(p, d, 0)
			if len(e.Scripts) == 0 {
				t.Fatalf("%s on %s: no schedules", p.Name, d)
			}
			if int64(len(e.Scripts)) > e.Bound {
				t.Errorf("%s on %s: %d schedules exceed bound %d", p.Name, d, len(e.Scripts), e.Bound)
			}
			if e.Capped {
				t.Errorf("%s on %s: capped without a cap", p.Name, d)
			}
			if !p.MT() && (len(e.Scripts) != 1 || e.Bound != 1) {
				t.Errorf("%s on %s: single-threaded pattern gave %d schedules (bound %d), want 1 (bound 1)",
					p.Name, d, len(e.Scripts), e.Bound)
			}
			for _, s := range e.Scripts {
				if len(s) != total {
					t.Fatalf("%s on %s: script %v has %d steps, want %d", p.Name, d, s, len(s), total)
				}
				got := make([]int, p.NThreads())
				for _, tid := range s {
					got[tid]++
				}
				for tid, n := range got {
					if n != perThread[tid] {
						t.Fatalf("%s on %s: script %v releases thread %d %d times, want %d",
							p.Name, d, s, tid, n, perThread[tid])
					}
				}
			}
		}
	}
}

// TestEnumeratePrunes requires the DPOR layer to prune somewhere: the
// corpus-wide explored total must be strictly smaller than the
// unreduced bound total, per design.
func TestEnumeratePrunes(t *testing.T) {
	for _, d := range dataflow.OrderDesigns() {
		var explored, bound int64
		for _, p := range litmus.MTCorpus() {
			e := enumerate(p, d, 0)
			explored += int64(len(e.Scripts))
			bound += e.Bound
		}
		if explored >= bound {
			t.Errorf("%s: explored %d schedules of unreduced bound %d — the reduction never pruned", d, explored, bound)
		}
		t.Logf("%s: %d schedules of %d unreduced", d, explored, bound)
	}
}

// TestEnumerateCap pins -max-schedules determinism: a capped
// enumeration is a prefix of the full one.
func TestEnumerateCap(t *testing.T) {
	p := mustPattern(t, "mt-flush-race")
	full := enumerate(p, dataflow.DesignDPO, 0)
	capped := enumerate(p, dataflow.DesignDPO, 3)
	if !capped.Capped || len(capped.Scripts) != 3 {
		t.Fatalf("cap 3: got %d schedules, capped=%v", len(capped.Scripts), capped.Capped)
	}
	for i, s := range capped.Scripts {
		if len(s) != len(full.Scripts[i]) {
			t.Fatalf("capped script %d differs in length", i)
		}
		for j := range s {
			if s[j] != full.Scripts[i][j] {
				t.Fatalf("capped script %d is not a prefix of the full enumeration", i)
			}
		}
	}
}

// TestMCSingleCell drives the smallest real cell end to end: the
// controlled scheduler must replay each schedule, the persist observer
// must capture a non-empty crash-image chain, and the cell verdict
// must match the corpus table.
func TestMCSingleCell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	p := mustPattern(t, "mt-cross-bare")
	rep := RunCorpus([]litmus.Pattern{p}, Options{Designs: []string{"IntelX86"}})
	if len(rep.Cells) != 1 {
		t.Fatalf("want 1 cell, got %d", len(rep.Cells))
	}
	c := rep.Cells[0]
	if len(c.Failures) > 0 {
		t.Fatalf("cell failed: %v", c.Failures)
	}
	if c.Schedules != 1 || c.Bound != 2 {
		t.Errorf("schedules=%d bound=%d, want 1 of 2", c.Schedules, c.Bound)
	}
	if c.Images == 0 || c.UniqueImages == 0 {
		t.Errorf("no crash images captured: images=%d unique=%d", c.Images, c.UniqueImages)
	}
	if c.Static || c.Refuted {
		t.Errorf("static=%v refuted=%v, want UNORDERED and unrefuted", c.Static, c.Refuted)
	}
	if !c.Witnessed {
		t.Errorf("commit-without-data image not witnessed; chain did not expose the tail's commit-first window")
	}
}

// TestMCCorpus is the exhaustive sweep Run performs: every single- and
// multi-threaded pattern × design, every non-equivalent schedule, every
// crash image. Zero refutations of the hand-derived ORDERED verdicts is
// the contract.
func TestMCCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep in -short mode")
	}
	rep := Run(Options{})
	if !rep.Ok() {
		for _, c := range rep.Cells {
			if c.Refuted || c.Static != c.Expected || len(c.Failures) > 0 {
				t.Errorf("cell %s/%s: refuted=%v static=%v expected=%v failures=%v",
					c.Pattern, c.Design, c.Refuted, c.Static, c.Expected, c.Failures)
			}
		}
		t.Fatalf("campaign not ok: %s", rep.Summary())
	}
	if rep.Schedules >= rep.Bound {
		t.Errorf("explored %d schedules of unreduced bound %d: DPOR never pruned", rep.Schedules, rep.Bound)
	}
	if rep.Witnessed == 0 {
		t.Errorf("no UNORDERED cell witnessed commit-without-data: %s", rep.Summary())
	}
	if rep.CappedCells != 0 {
		t.Errorf("%d cells capped in an uncapped sweep", rep.CappedCells)
	}
	if rep.Patterns != len(litmus.Corpus())+len(litmus.MTCorpus()) || rep.Designs != 5 {
		t.Errorf("unexpected sweep shape: %s", rep.Summary())
	}
	t.Logf("sweep: %s", rep.Summary())
}

// TestMCDeterministic runs the same small campaign at worker widths 1
// and 4 and requires byte-identical JSON: the report must be keyed by
// cell index, never completion order — and the schedule enumeration
// plus image chains must be schedule-for-schedule reproducible.
func TestMCDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	sub := []litmus.Pattern{mustPattern(t, "flush-order"), mustPattern(t, "mt-cross-bare"), mustPattern(t, "mt-remote-flush-commit")}
	run := func(workers int) []byte {
		rep := RunCorpus(sub, Options{Parallel: workers})
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	a, b := run(1), run(4)
	if string(a) != string(b) {
		t.Fatalf("report differs across worker counts:\n  1: %s\n  4: %s", a, b)
	}
}

// TestWitnessMissRegression pins the capability gap the model checker
// exists to close. mt-flush-race on IntelX86: under the default
// (clock, id) dispatch the two threads run in lockstep and thread 0's
// flush of Data always admits no later than thread 1's flush of
// Commit, so a crash at every persist boundary of that run never sees
// commit-without-data. The schedule that runs thread 1 first exposes
// it — and the model checker must find it.
func TestWitnessMissRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	p := mustPattern(t, "mt-flush-race")

	images, err := referenceImages(p, machine.IntelX86, 0)
	if err != nil {
		t.Fatalf("reference sweep broken: %v", err)
	}
	for _, img := range images {
		if cwd, err := p.Classify(img); err != nil || cwd {
			t.Fatalf("premise broke: default dispatch gave image %v (torn: %v) on mt-flush-race/IntelX86 — pick a new regression pattern", img, err)
		}
	}

	checked := RunCorpus([]litmus.Pattern{p}, Options{Designs: []string{"IntelX86"}})
	if !checked.Ok() || len(checked.Cells) != 1 {
		t.Fatalf("model-checking campaign broken: %s", checked.Summary())
	}
	if !checked.Cells[0].Witnessed {
		t.Fatalf("model checker missed the cross-schedule witness default dispatch misses: %+v", checked.Cells[0])
	}
}

// TestMTLitmusSmallRun runs MT patterns under the default (clock, id)
// dispatch — real workers, real mutex, real join barrier — on every
// design and crashes them at boundary-aligned points: no image may be
// torn or refute an ORDERED row. The model checker releases one op at a
// time, so this is the only probe of sub-op timing for MT patterns.
func TestMTLitmusSmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep in -short mode")
	}
	var sub []litmus.Pattern
	for _, name := range []string{"mt-flush-race", "mt-bg-noise-ordered", "mt-lock-ordered", "mt-lock-handoff", "mt-strand-race"} {
		sub = append(sub, mustPattern(t, name))
	}
	_, pairs := litmus.Select(nil, "", 0, nil)
	for _, c := range referenceSweep(t, sub, pairs, 5) {
		ordered := litmus.StaticOrdered(c.p, c.pair.Order)
		for _, img := range c.images {
			cwd, err := c.p.Classify(img)
			if err != nil {
				t.Errorf("%s/%s: torn image %v: %v", c.p.Name, c.pair.Order, img, err)
			}
			if cwd && ordered {
				t.Errorf("%s/%s: ORDERED claim refuted by image %v", c.p.Name, c.pair.Order, img)
			}
		}
	}
}

// TestChainCoversCrashSweep is the differential proof that one
// no-crash run's persist-observer chain holds every crash image: for
// single-threaded cells (exactly one schedule), every image of a
// re-simulating crash sweep at boundary-aligned points must be an
// entry of the cell's chain, and every cell the sweep witnesses the
// model checker must witness too.
// The selection is 10 stride-picked patterns × 5 designs × up to 6
// boundary instants (3 crash points each): 897 images. Every cell but
// one finds 6 instants; sameline-order/HOPS persists only 5 boundaries
// in its reference discovery run (a litmus program warms no log), so
// it contributes 15 images, not 18.
func TestChainCoversCrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep in -short mode")
	}
	patterns, pairs := litmus.Select(litmus.Corpus(), "", 10, nil)
	total, missing := 0, 0
	for _, c := range referenceSweep(t, patterns, pairs, 6) {
		chain, err := runSchedule(c.p, c.pair.Machine, enumerate(c.p, c.pair.Order, 0).Scripts[0])
		if err != nil {
			t.Fatalf("%s/%s: %v", c.p.Name, c.pair.Order, err)
		}
		witnesses := func(vec []uint64) bool {
			cwd, err := c.p.Classify(vec)
			if err != nil {
				t.Errorf("%s/%s: torn image %v: %v", c.p.Name, c.pair.Order, vec, err)
			}
			return cwd
		}
		inChain := map[string]bool{}
		mcWitnessed := false
		for _, vec := range chain {
			inChain[fingerprint(vec)] = true
			mcWitnessed = witnesses(vec) || mcWitnessed
		}
		for _, img := range c.images {
			total++
			if !inChain[fingerprint(img)] {
				missing++
				t.Errorf("%s/%s: crash image %v is not in the chain %v", c.p.Name, c.pair.Order, img, chain)
			}
			if witnesses(img) && !mcWitnessed {
				t.Errorf("%s/%s: crash image %v witnesses commit-without-data, the model checker does not",
					c.p.Name, c.pair.Order, img)
			}
		}
	}
	if total != 897 {
		t.Errorf("swept %d crash images, want 897", total)
	}
	t.Logf("%d of %d crash images missing from the chains", missing, total)
}

// TestScheduleTakesNoSnapshot: a model-checker schedule reads only its
// crash-image chain, so its trial asks for no metrics snapshot and its
// outcome carries none.
func TestScheduleTakesNoSnapshot(t *testing.T) {
	run := runTrial
	defer func() { runTrial = run }()
	trials := 0
	runTrial = func(spec harness.TrialSpec, w workload.Workload) (harness.CrashOutcome, error) {
		out, err := run(spec, w)
		trials++
		if spec.Metrics || out.Metrics != nil {
			t.Errorf("%s: schedule trial asked for a snapshot (%v) or got one of %d metrics", w.Name(), spec.Metrics, len(out.Metrics))
		}
		return out, err
	}
	rep := RunCorpus([]litmus.Pattern{mustPattern(t, "flush-order"), mustPattern(t, "mt-cross-bare")}, Options{Parallel: 1})
	if !rep.Ok() || trials == 0 || int64(trials) != rep.Schedules {
		t.Fatalf("%d schedule trials observed: %s", trials, rep.Summary())
	}
}
