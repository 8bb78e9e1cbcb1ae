package harness

import (
	"fmt"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/machine"
	"pmemspec/internal/workload"
)

// CampaignConfig describes a fault-injection campaign: the cross product
// of designs × workloads, each cell swept over a set of crash points
// (uniform grid plus, optionally, persist-boundary-aligned points
// discovered from an instrumented run) with optional misspeculation
// injection, executed on the worker pool.
type CampaignConfig struct {
	Designs   []machine.Design // nil: the four paper designs
	Workloads []string         // nil: every benchmark workload
	Params    workload.Params
	Points    int   // uniform crash points per cell
	MaxNS     int64 // latest uniform crash point, ns
	// Boundaries enables persist-boundary discovery: each cell first
	// runs once instrumented, then crashes just before/at/after each
	// discovered drain and WPQ-admission instant.
	Boundaries bool
	// BoundaryBudget caps discovered boundary instants per cell
	// (deterministic subsampling); 0 keeps all of them.
	BoundaryBudget int
	// MaxPoints caps the merged (uniform + boundary) crash points per
	// cell; 0 keeps all of them.
	MaxPoints int
	Mode      fatomic.Mode
	Inject    InjectionPlan
	Opts      []Option
}

// TrialRecord is the machine-readable result of one campaign trial.
// Fields are simulation-deterministic: a campaign serializes to
// byte-identical JSON regardless of pool width.
type TrialRecord struct {
	Design            string `json:"design"`
	Workload          string `json:"workload"`
	Point             string `json:"point"` // provenance label, e.g. "uniform@12000ns", "pre-drain@8123ns"
	CrashAtNS         int64  `json:"crash_at_ns"`
	Crashed           bool   `json:"crashed"`
	CommittedFASEs    uint64 `json:"committed_fases"`
	Aborts            uint64 `json:"aborts,omitempty"`
	LoadSignals       uint64 `json:"load_signals,omitempty"`
	StoreSignals      uint64 `json:"store_signals,omitempty"`
	InjectedStale     uint64 `json:"injected_stale_loads,omitempty"`
	InjectedOOO       uint64 `json:"injected_ooo_persists,omitempty"`
	InjectedUnclaimed uint64 `json:"injected_unclaimed,omitempty"`
	ThreadsRolledBack int    `json:"threads_rolled_back"`
	EntriesUndone     int    `json:"entries_undone"`
	EntriesReplayed   int    `json:"entries_replayed"`
	Verdict           string `json:"verdict"` // "ok" | "violation" | "error"
	Detail            string `json:"detail,omitempty"`
}

// VerdictOK, VerdictViolation and VerdictError classify a trial: the
// invariants held; the recovered image broke an invariant (the paper's
// correctness claim failed); or the trial itself could not run.
const (
	VerdictOK        = "ok"
	VerdictViolation = "violation"
	VerdictError     = "error"
)

// CampaignReport is the machine-readable output of RunCampaign.
type CampaignReport struct {
	Threads    int           `json:"threads"`
	Ops        int           `json:"ops"`
	Seed       int64         `json:"seed"`
	Mode       string        `json:"mode"`
	Injection  InjectionPlan `json:"injection"`
	Trials     []TrialRecord `json:"trials"`
	Violations int           `json:"violations"`
	Failures   int           `json:"failures"`
}

// CellSummary aggregates one (design, workload) cell of a report.
type CellSummary struct {
	Design, Workload             string
	Trials, Crashed              int
	Violations, Failures         int
	RolledBack, Undone, Replayed int
	InjectedStale, InjectedOOO   uint64
}

// Cells summarizes the report per (design, workload) cell, in first-
// appearance order.
func (r CampaignReport) Cells() []CellSummary {
	idx := map[[2]string]int{}
	var out []CellSummary
	for _, t := range r.Trials {
		key := [2]string{t.Design, t.Workload}
		i, ok := idx[key]
		if !ok {
			i = len(out)
			idx[key] = i
			out = append(out, CellSummary{Design: t.Design, Workload: t.Workload})
		}
		c := &out[i]
		c.Trials++
		if t.Crashed {
			c.Crashed++
		}
		switch t.Verdict {
		case VerdictViolation:
			c.Violations++
		case VerdictError:
			c.Failures++
		}
		c.RolledBack += t.ThreadsRolledBack
		c.Undone += t.EntriesUndone
		c.Replayed += t.EntriesReplayed
		c.InjectedStale += t.InjectedStale
		c.InjectedOOO += t.InjectedOOO
	}
	return out
}

// record converts a trial outcome to its report row.
func record(o CrashOutcome) TrialRecord {
	t := TrialRecord{
		Design:            o.Design.String(),
		Workload:          o.Workload,
		Point:             o.Label,
		CrashAtNS:         o.CrashAtNS,
		Crashed:           o.Crashed,
		CommittedFASEs:    o.Runtime.FASEs,
		Aborts:            o.Runtime.Aborts,
		LoadSignals:       o.Runtime.LoadSignals,
		StoreSignals:      o.Runtime.StoreSignals,
		InjectedStale:     o.Injected.StaleLoads,
		InjectedOOO:       o.Injected.OOOPersists,
		InjectedUnclaimed: o.Injected.Unclaimed,
		ThreadsRolledBack: o.Recovery.ThreadsRolledBack,
		EntriesUndone:     o.Recovery.EntriesUndone,
		EntriesReplayed:   o.Recovery.EntriesReplayed,
	}
	switch {
	case o.Err != nil:
		t.Verdict = VerdictError
		t.Detail = o.Err.Error()
	case o.VerifyErr != nil:
		t.Verdict = VerdictViolation
		t.Detail = o.VerifyErr.Error()
	default:
		t.Verdict = VerdictOK
	}
	return t
}

// RunCampaign executes the campaign on the runner's worker pool, one job
// per (design, workload) cell (see sweepCell), and assembles the report
// in deterministic cell-major, point-minor order. A cell whose boundary
// discovery fails falls back to its uniform grid and records the
// discovery failure as an error row ahead of every cell's rows; a point
// the run fails to reach is an error row, never an aborted campaign.
func (r *Runner) RunCampaign(cfg CampaignConfig) (CampaignReport, error) {
	names := cfg.Workloads
	if names == nil {
		names = workload.Names()
	}
	for _, n := range names {
		if _, err := workload.ByName(n); err != nil {
			return CampaignReport{}, err
		}
	}
	uniform, err := UniformPoints(cfg.Points, cfg.MaxNS)
	if err != nil {
		return CampaignReport{}, err
	}

	type cell struct {
		outs         []CrashOutcome
		discoveryErr error
	}
	specs := cfg.cellSpecs()
	jobs := make([]Job[cell], len(specs))
	for i := range specs {
		// The metrics grid is the only reader of the outcomes' snapshots.
		specs[i].Metrics = r.Metrics != nil
		spec := specs[i]
		jobs[i] = Job[cell]{
			Label: fmt.Sprintf("crash: %s / %s", spec.Design, spec.Workload),
			Run: func() (cell, error) {
				outs, err := cfg.sweepCell(spec, uniform)
				return cell{outs, err}, nil
			},
		}
	}
	cells := make([]cell, len(specs))
	for i, res := range RunAll(jobs, r.Parallel, r.Progress) {
		cells[i] = res.Result
		if res.Err != nil {
			// A captured panic: the cell's one row carries it.
			cells[i].outs = []CrashOutcome{{Design: specs[i].Design, Workload: specs[i].Workload,
				Label: "cell", Err: res.Err}}
		}
	}

	rep := CampaignReport{
		Threads:   cfg.Params.Threads,
		Ops:       cfg.Params.Ops,
		Seed:      cfg.Params.Seed,
		Mode:      modeName(cfg.Mode),
		Injection: cfg.Inject,
	}
	for i, c := range cells {
		if c.discoveryErr != nil {
			rep.Trials = append(rep.Trials, record(CrashOutcome{Design: specs[i].Design,
				Workload: specs[i].Workload, CrashAtNS: NoCrash.AtNS, Label: "boundary-discovery",
				Err: c.discoveryErr}))
		}
	}
	for _, c := range cells {
		for _, o := range c.outs {
			rep.Trials = append(rep.Trials, record(o))
			r.Metrics.Add(o.Design.String(), o.Workload, o.Metrics)
		}
	}
	for _, t := range rep.Trials {
		switch t.Verdict {
		case VerdictViolation:
			rep.Violations++
		case VerdictError:
			rep.Failures++
		}
	}
	return rep, nil
}

// cellSpecs returns one trial spec per (design, workload) cell, design-
// major; the spec's Point is unset.
func (cfg CampaignConfig) cellSpecs() []TrialSpec {
	designs := cfg.Designs
	if designs == nil {
		designs = machine.Designs
	}
	names := cfg.Workloads
	if names == nil {
		names = workload.Names()
	}
	var specs []TrialSpec
	for _, d := range designs {
		for _, n := range names {
			p := cfg.Params
			if n == "memcached" && p.DataSize < 1024 {
				p.DataSize = 1024
			}
			specs = append(specs, TrialSpec{Design: d, Workload: n, Params: p,
				Mode: cfg.Mode, Inject: cfg.Inject, Opts: cfg.Opts})
		}
	}
	return specs
}

// sweepCell runs one cell of the campaign: a boundary discovery run,
// when enabled, then one live sweep (runSweep) over the cell's merged
// crash points. It returns the cell's rows in report order and, if
// discovery failed, why. The discovery run is the cell's no-crash
// injection trial, so that row costs no run of its own. spec's
// workload must exist; every run gets a fresh instance of it.
func (cfg CampaignConfig) sweepCell(spec TrialSpec, uniform []CrashPoint) ([]CrashOutcome, error) {
	fresh := func() workload.Workload {
		w, _ := workload.ByName(spec.Workload)
		return w
	}
	var found []CrashPoint
	var discovered *CrashOutcome
	var discoveryErr error
	if cfg.Boundaries {
		b, out := discover(spec, fresh())
		if discoveryErr = discoveryErrOf(out); discoveryErr == nil {
			found = b.Points(cfg.BoundaryBudget)
		}
		discovered = &out
	}
	pts := MergePoints(uniform, found)
	if cfg.MaxPoints > 0 {
		pts = Stride(pts, cfg.MaxPoints)
	}
	// Run-to-completion trial: injected misspeculations abort FASEs
	// mid-flight, yet the final image must reflect every committed
	// operation.
	noCrash := cfg.Inject.Enabled()
	if noCrash && discovered == nil {
		pts = append(pts, NoCrash)
	}
	outs := runSweep(spec, fresh(), pts, nil)
	if noCrash && discovered != nil {
		outs = append(outs, *discovered)
	}
	return outs, discoveryErr
}

// RunCampaign executes cfg on a GOMAXPROCS-wide pool.
func RunCampaign(cfg CampaignConfig) (CampaignReport, error) {
	return (&Runner{}).RunCampaign(cfg)
}

func modeName(m fatomic.Mode) string {
	if m == fatomic.Eager {
		return "eager"
	}
	return "lazy"
}
