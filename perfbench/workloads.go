package main

import (
	"fmt"

	"pmemspec/internal/harness"
	"pmemspec/internal/litmus"
	"pmemspec/internal/machine"
	"pmemspec/internal/mc"
	"pmemspec/internal/metrics"
	"pmemspec/internal/workload"
)

// size fixes how much simulated work one pass of each workload does.
type size struct {
	gridThreads, gridOps   int
	crashThreads, crashOps int
	crashPoints            int // uniform crash points per cell
	crashBoundaryBudget    int // persist-boundary instants per cell
	mcPatterns             int // leading MT corpus patterns; 0 = all
	mcMaxSchedules         int // per-cell schedule cap; 0 = exhaustive
}

// paperSize is the benchmark: the paper's 8-core Fig 9 grid, the
// campaign `pmemspec-crash` runs by default on three designs × two
// workloads, and the exhaustive model-checker sweep.
var paperSize = size{
	gridThreads: 8, gridOps: 400,
	crashThreads: 4, crashOps: 100, crashPoints: 12, crashBoundaryBudget: 16,
}

// passResult is one pass's outcome: items attempted and failed, the
// deterministic report whose digest pins every simulated number, and the
// exact simulated counts keyed by metric name.
type passResult struct {
	items, failed int
	report        any
	counts        map[string]float64
}

// pass is one workload pass at a fixed seed.
type pass interface {
	// run executes the pass through the program's public batch entry
	// point.
	run(width int) (passResult, error)
	// runTraced executes the same pass as the benchmark's own per-item
	// calls into public functions, recording each call's duration in sp.
	// It yields the same items and failures as run; the report and the
	// counts are taken from run only.
	runTraced(width int, sp *spans) (passResult, error)
}

// bench is one benchmark workload.
type bench struct {
	name string
	// refPassSeconds is one pass's host time on the reference host
	// (2-core Xeon, pool width 2); a run of --seconds s measures
	// ceil(seconds/refPassSeconds) whole passes, so the work per run is
	// fixed and a faster program simply finishes sooner.
	refPassSeconds float64
	// seeded is false when the workload has no randomness to seed.
	seeded  bool
	prepare func(s size, seed int64) pass
}

var benches = []bench{
	{name: "grid", refPassSeconds: 4, seeded: true, prepare: prepareGrid},
	// The campaign's cost and failures swing with the seed (at seed 3
	// PMEM-Spec/tpcc's discovery run fails and the cell loses its 47
	// boundary trials), which would make the run-to-run spread a draw of
	// seeds rather than a property of the code; every pass runs at the
	// golden seed.
	{name: "crash", refPassSeconds: 10, seeded: false, prepare: prepareCrash},
	{name: "mc", refPassSeconds: 15, seeded: false, prepare: prepareMC},
}

func benchByName(name string) (bench, error) {
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
	}
	return bench{}, fmt.Errorf("unknown workload %q (want grid, crash or mc)", name)
}

// countNames maps metric names to the (component, name) the program
// publishes them under in its metrics snapshot.
var countNames = []struct{ metric, component, name string }{
	{"machine.loads", "machine", "loads"},
	{"machine.stores", "machine", "stores"},
	{"cache.l1_hits", "machine", "l1_hits"},
	{"cache.llc_hits", "machine", "llc_hits"},
	{"cache.pm_fetches", "machine", "pm_fetches"},
	{"pmc.wpq_accepts", "wpq", "accepts"},
	{"pmc.wpq_coalesced", "wpq", "coalesced"},
	{"pmc.wpq_stall_cycles", "wpq", "stall_cycles"},
	{"ppath.sent", "ppath", "sent"},
	{"core.specbuf_reads", "specbuf", "reads"},
	{"core.specbuf_overflows", "specbuf", "overflows"},
	{"fatomic.fases", "fatomic", "fases"},
	{"fatomic.aborts", "fatomic", "aborts"},
	{"osint.interrupts", "osint", "interrupts"},
}

// mcCountNames are the model checker's exact counts, from its report.
var mcCountNames = []string{"mc.schedules", "mc.bound", "mc.images", "mc.unique_images"}

// snapshotCounts reads the named counters out of a merged snapshot.
func snapshotCounts(s metrics.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for _, c := range countNames {
		m, _ := s.Get(c.component, c.name)
		out[c.metric] = float64(m.Value)
	}
	return out
}

// --- grid: the Fig 9 grid, harness.Run per (design, workload) cell. ---

type gridCell struct {
	design machine.Design
	name   string
	params workload.Params
}

type gridPass struct{ cells []gridCell }

// prepareGrid enumerates the cells exactly as harness.Runner.Fig9 does:
// Table 4 workloads × paper designs, 64 B items (1 KiB for memcached).
func prepareGrid(s size, seed int64) pass {
	var cells []gridCell
	for _, name := range workload.Names() {
		for _, d := range machine.Designs {
			p := workload.Params{Threads: s.gridThreads, Ops: s.gridOps, DataSize: 64, Seed: seed}
			if name == "memcached" {
				p.DataSize = 1024
			}
			cells = append(cells, gridCell{d, name, p})
		}
	}
	return gridPass{cells}
}

// run dispatches the cells on the harness pool like Runner.Fig9, but
// keeps every cell's own outcome: Fig9 stops at the first failed cell,
// and the benchmark counts each one.
func (g gridPass) run(width int) (passResult, error) { return g.runTraced(width, nil) }

func (g gridPass) runTraced(width int, sp *spans) (passResult, error) {
	jobs := make([]harness.Job[harness.Result], len(g.cells))
	for i, c := range g.cells {
		jobs[i] = harness.Job[harness.Result]{
			Label: fmt.Sprintf("grid: %s / %s", c.name, c.design),
			Run: timed(sp, "harness.run_ms", func() (harness.Result, error) {
				w, err := workload.ByName(c.name)
				if err != nil {
					return harness.Result{}, err
				}
				return harness.Run(c.design, w, c.params)
			}),
		}
	}
	res := harness.RunAll(jobs, width, nil)
	out := passResult{items: len(res)}
	results := make([]harness.Result, len(res))
	var snap metrics.Snapshot
	for i, r := range res {
		if r.Err != nil {
			out.failed++
		}
		results[i] = r.Result
		snap = metrics.Merge(snap, r.Result.Metrics)
	}
	// Every cell's Result (throughput, kernel time, machine and runtime
	// statistics) — the data the Fig 9 rows are computed from.
	out.report = results
	out.counts = snapshotCounts(snap)
	return out, nil
}

// --- crash: a boundary-aligned campaign with misspeculation injection. ---

type crashPass struct{ cfg harness.CampaignConfig }

func prepareCrash(s size, seed int64) pass {
	return crashPass{harness.CampaignConfig{
		Designs:        []machine.Design{machine.IntelX86, machine.HOPS, machine.PMEMSpec},
		Workloads:      []string{"queue", "tpcc"},
		Params:         workload.Params{Threads: s.crashThreads, Ops: s.crashOps, DataSize: 64, Seed: seed},
		Points:         s.crashPoints,
		MaxNS:          400_000,
		Boundaries:     true,
		BoundaryBudget: s.crashBoundaryBudget,
		// The CI campaign's periods for both misspeculation kinds, but
		// uncapped: chains capped at a few events fire during the
		// single-threaded setup and never abort a FASE.
		Inject: harness.InjectionPlan{StalePeriodNS: 4000, OOOPeriodNS: 7000},
	}}
}

func (p crashPass) run(width int) (passResult, error) {
	r := harness.Runner{Parallel: width, Metrics: metrics.NewGrid()}
	rep, err := r.RunCampaign(p.cfg)
	if err != nil {
		return passResult{}, err
	}
	var snap metrics.Snapshot
	for _, cell := range r.Metrics.Cells() {
		snap = metrics.Merge(snap, cell.Metrics)
	}
	counts := snapshotCounts(snap)
	counts["harness.trials"] = float64(len(rep.Trials))
	return passResult{
		items:  len(rep.Trials),
		failed: rep.Violations + rep.Failures,
		report: rep,
		counts: counts,
	}, nil
}

// runTraced replays Runner.RunCampaign's two phases as individual calls:
// one DiscoverBoundaries per cell, then one RunTrial per crash point plus
// the run-to-completion injection trial. A failed discovery is one failed
// item and leaves the cell its uniform points, as in the campaign.
func (p crashPass) runTraced(width int, sp *spans) (passResult, error) {
	cfg := p.cfg
	uniform, err := harness.UniformPoints(cfg.Points, cfg.MaxNS)
	if err != nil {
		return passResult{}, err
	}
	type cell struct {
		design machine.Design
		name   string
	}
	var cells []cell
	for _, d := range cfg.Designs {
		for _, n := range cfg.Workloads {
			cells = append(cells, cell{d, n})
		}
	}
	spec := func(c cell, pt harness.CrashPoint) harness.TrialSpec {
		return harness.TrialSpec{Design: c.design, Workload: c.name, Params: cfg.Params,
			Point: pt, Mode: cfg.Mode, Inject: cfg.Inject}
	}

	discover := make([]harness.Job[harness.Boundaries], len(cells))
	for i, c := range cells {
		discover[i] = harness.Job[harness.Boundaries]{
			Label: fmt.Sprintf("boundaries: %s / %s", c.design, c.name),
			Run: timed(sp, "harness.discover_ms", func() (harness.Boundaries, error) {
				return harness.DiscoverBoundaries(spec(c, harness.NoCrash))
			}),
		}
	}
	var out passResult
	var trials []harness.Job[harness.CrashOutcome]
	for i, b := range harness.RunAll(discover, width, nil) {
		var found []harness.CrashPoint
		if b.Err != nil {
			out.items++
			out.failed++
		} else {
			found = b.Result.Points(cfg.BoundaryBudget)
		}
		pts := harness.MergePoints(uniform, found)
		if cfg.Inject.Enabled() {
			pts = append(pts, harness.NoCrash)
		}
		for _, pt := range pts {
			ts := spec(cells[i], pt)
			trials = append(trials, harness.Job[harness.CrashOutcome]{
				Label: fmt.Sprintf("crash: %s / %s / %s", ts.Design, ts.Workload, pt.Label),
				Run:   timed(sp, "harness.trial_ms", func() (harness.CrashOutcome, error) { return harness.RunTrial(ts) }),
			})
		}
	}
	for _, t := range harness.RunAll(trials, width, nil) {
		out.items++
		if t.Err != nil || t.Result.VerifyErr != nil {
			out.failed++
		}
	}
	return out, nil
}

// --- mc: the exhaustive DPOR sweep over the MT litmus corpus. ---

type mcPass struct {
	patterns     []litmus.Pattern
	maxSchedules int
}

// prepareMC ignores the seed: the corpus and the schedule enumeration are
// fixed.
func prepareMC(s size, _ int64) pass {
	patterns := litmus.MTCorpus()
	if s.mcPatterns > 0 && s.mcPatterns < len(patterns) {
		patterns = patterns[:s.mcPatterns]
	}
	return mcPass{patterns, s.mcMaxSchedules}
}

// cellFailed is the model checker's per-cell failure rule (Report.Ok).
func cellFailed(c mc.CellResult) bool {
	return c.Refuted || c.Static != c.Expected || len(c.Failures) > 0
}

// run is mc.Run (RunCorpus over the MT corpus) at the paper size.
func (m mcPass) run(width int) (passResult, error) {
	rep := mc.RunCorpus(m.patterns, mc.Options{MaxSchedules: m.maxSchedules, Parallel: width})
	out := passResult{items: len(rep.Cells), report: rep, counts: map[string]float64{
		"mc.schedules":     float64(rep.Schedules),
		"mc.bound":         float64(rep.Bound),
		"mc.images":        float64(rep.Images),
		"mc.unique_images": float64(rep.UniqueImages),
	}}
	for _, c := range rep.Cells {
		if cellFailed(c) {
			out.failed++
		}
	}
	return out, nil
}

// runTraced checks one (pattern, design) cell per RunCorpus call.
func (m mcPass) runTraced(width int, sp *spans) (passResult, error) {
	var jobs []harness.Job[mc.Report]
	for _, p := range m.patterns {
		for _, d := range machine.AllDesigns {
			opts := mc.Options{Designs: []string{d.String()}, MaxSchedules: m.maxSchedules, Parallel: 1}
			corpus := []litmus.Pattern{p}
			jobs = append(jobs, harness.Job[mc.Report]{
				Label: fmt.Sprintf("mc %s/%s", p.Name, d),
				Run:   timed(sp, "mc.cell_ms", func() (mc.Report, error) { return mc.RunCorpus(corpus, opts), nil }),
			})
		}
	}
	var out passResult
	for _, r := range harness.RunAll(jobs, width, nil) {
		if r.Err != nil {
			out.items++
			out.failed++
			continue
		}
		for _, c := range r.Result.Cells {
			out.items++
			if cellFailed(c) {
				out.failed++
			}
		}
	}
	return out, nil
}
