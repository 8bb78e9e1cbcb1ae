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

// RunCampaign executes the campaign on the runner's worker pool in two
// phases — boundary discovery (one instrumented run per cell, when
// enabled), then the crash/injection trials — and assembles the report
// in deterministic cell-major, point-minor order. A cell whose boundary
// discovery fails falls back to its uniform grid and records the
// discovery failure as an error trial; a trial that fails to run is an
// error row, never an aborted campaign.
func (r *Runner) RunCampaign(cfg CampaignConfig) (CampaignReport, error) {
	designs := cfg.Designs
	if designs == nil {
		designs = machine.Designs
	}
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
		design machine.Design
		name   string
		params workload.Params
	}
	var cells []cell
	for _, d := range designs {
		for _, n := range names {
			p := cfg.Params
			if n == "memcached" && p.DataSize < 1024 {
				p.DataSize = 1024
			}
			cells = append(cells, cell{design: d, name: n, params: p})
		}
	}

	spec := func(c cell, pt CrashPoint) TrialSpec {
		return TrialSpec{Design: c.design, Workload: c.name, Params: c.params,
			Point: pt, Mode: cfg.Mode, Inject: cfg.Inject, Opts: cfg.Opts}
	}

	// Phase 1: persist-boundary discovery, one instrumented run per cell.
	discovered := make([][]CrashPoint, len(cells))
	discoveryErr := make([]error, len(cells))
	if cfg.Boundaries {
		jobs := make([]Job[Boundaries], len(cells))
		for i := range cells {
			c := cells[i]
			jobs[i] = Job[Boundaries]{
				Label: fmt.Sprintf("boundaries: %s / %s", c.design, c.name),
				Run: func() (Boundaries, error) {
					return DiscoverBoundaries(spec(c, NoCrash))
				},
			}
		}
		for i, res := range RunAll(jobs, r.Parallel, r.Progress) {
			if res.Err != nil {
				discoveryErr[i] = res.Err
				continue
			}
			discovered[i] = res.Result.Points(cfg.BoundaryBudget)
		}
	}

	// Phase 2: the trials, cell-major so the report order is stable.
	var specs []TrialSpec
	var prefix []TrialRecord
	for i, c := range cells {
		if err := discoveryErr[i]; err != nil {
			t := record(CrashOutcome{Design: c.design, Workload: c.name,
				CrashAtNS: NoCrash.AtNS, Label: "boundary-discovery", Err: err})
			prefix = append(prefix, t)
		}
		pts := MergePoints(uniform, discovered[i])
		if cfg.MaxPoints > 0 {
			pts = Stride(pts, cfg.MaxPoints)
		}
		for _, pt := range pts {
			specs = append(specs, spec(c, pt))
		}
		if cfg.Inject.Enabled() {
			// Run-to-completion trial: injected misspeculations abort
			// FASEs mid-flight, yet the final image must reflect every
			// committed operation.
			specs = append(specs, spec(c, NoCrash))
		}
	}
	outs := r.RunTrials(specs)

	rep := CampaignReport{
		Threads:   cfg.Params.Threads,
		Ops:       cfg.Params.Ops,
		Seed:      cfg.Params.Seed,
		Mode:      modeName(cfg.Mode),
		Injection: cfg.Inject,
		Trials:    prefix,
	}
	for _, o := range outs {
		rep.Trials = append(rep.Trials, record(o))
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
