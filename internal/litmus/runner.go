package litmus

import (
	"fmt"
	"slices"
	"strings"

	"pmemspec/internal/analysis/dataflow"
	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
	"pmemspec/internal/workload"
)

// Options configures a litmus campaign.
type Options struct {
	// Designs filters by design name (machine/dataflow String() names);
	// empty runs all five.
	Designs []string
	// Pattern filters the corpus by substring match on pattern name.
	Pattern string
	// MaxPatterns stride-subsamples the corpus to at most this many
	// patterns (0: all). The subsample is deterministic, so quick CI runs
	// always validate the same cells.
	MaxPatterns int
	// PointBudget caps boundary instants per cell (harness.Boundaries
	// .Points); 0 probes every boundary the discovery run crossed.
	PointBudget int
	// Parallel is the worker count for the cell sweep (≤ 0: GOMAXPROCS).
	Parallel int
	// Progress, if non-nil, receives each cell label as it starts.
	Progress func(string)
}

// CellResult is the campaign outcome for one pattern × design cell.
type CellResult struct {
	Pattern string `json:"pattern"`
	// Design is the design's canonical name.
	Design string `json:"design"`
	// Static is the order-lattice verdict for the cell's claim.
	Static bool `json:"static_ordered"`
	// Expected is the corpus's hand-derived verdict; Static must match.
	Expected bool `json:"expected_ordered"`
	// Points is the number of boundary-aligned crash points probed.
	Points int `json:"points"`
	// Trials counts executed crash trials (one per point).
	Trials int `json:"trials"`
	// Crashed counts trials where the power failure actually hit.
	Crashed int `json:"crashed"`
	// Witnessed: some recovered image held commit-without-data. Only
	// meaningful (and only possible without failing) when !Static.
	Witnessed bool `json:"witnessed"`
	// Refuted: a recovered image held commit-without-data although the
	// lattice claimed ORDERED. Any refuted cell fails the campaign.
	Refuted bool `json:"refuted"`
	// Failures are trial errors other than the ordering verdict (machine
	// errors, torn values, discovery failures).
	Failures []string `json:"failures,omitempty"`
}

// Report is the deterministic campaign summary: cells in corpus ×
// canonical-design order regardless of worker count.
type Report struct {
	Patterns       int          `json:"patterns"`
	Designs        int          `json:"designs"`
	OrderedCells   int          `json:"ordered_cells"`
	UnorderedCells int          `json:"unordered_cells"`
	Witnessed      int          `json:"witnessed_cells"`
	Refuted        int          `json:"refuted_cells"`
	Mismatches     int          `json:"static_mismatch_cells"`
	FailedCells    int          `json:"failed_cells"`
	Trials         int          `json:"trials"`
	Cells          []CellResult `json:"cells"`
}

// Ok reports whether the campaign upholds the differential contract:
// no ORDERED claim refuted, every lattice verdict matching the corpus
// table, and no trial failures.
func (r Report) Ok() bool {
	return r.Refuted == 0 && r.Mismatches == 0 && r.FailedCells == 0
}

// Summary is a one-line human rendering of the campaign outcome.
func (r Report) Summary() string {
	return fmt.Sprintf("%d patterns x %d designs: %d ordered cells upheld, %d/%d unordered witnessed, %d refuted, %d static mismatches, %d failed cells, %d trials",
		r.Patterns, r.Designs, r.OrderedCells, r.Witnessed, r.UnorderedCells,
		r.Refuted, r.Mismatches, r.FailedCells, r.Trials)
}

// DesignPair is one design under both of its names: the order design
// the static fold judges and the machine design the simulator runs.
type DesignPair struct {
	Order   dataflow.OrderDesign
	Machine machine.Design
}

// Select picks a campaign's cells, shared by the litmus runner and the
// model checker: the corpus patterns whose name contains pattern,
// stride-subsampled to at most maxPatterns (0: all), crossed with the
// designs named in designs (case-insensitive; empty: all five). Both
// come back in canonical report order, so a fixed selection always
// sweeps the same cells.
func Select(corpus []Pattern, pattern string, maxPatterns int, designs []string) ([]Pattern, []DesignPair) {
	var patterns []Pattern
	for _, p := range corpus {
		if strings.Contains(p.Name, pattern) {
			patterns = append(patterns, p)
		}
	}
	if maxPatterns > 0 {
		patterns = harness.Stride(patterns, maxPatterns)
	}
	wanted := func(name string) bool {
		return len(designs) == 0 || slices.ContainsFunc(designs, func(d string) bool { return strings.EqualFold(d, name) })
	}
	var pairs []DesignPair
	for _, od := range dataflow.OrderDesigns() {
		for _, md := range machine.AllDesigns {
			if md.String() == od.String() && wanted(od.String()) {
				pairs = append(pairs, DesignPair{od, md})
			}
		}
	}
	return patterns, pairs
}

// Run executes the litmus campaign described by opts over the corpus
// and returns its deterministic report.
func Run(opts Options) Report {
	return RunCorpus(Corpus(), opts)
}

// RunCorpus is Run over an explicit pattern set (tests use small ones).
func RunCorpus(corpus []Pattern, opts Options) Report {
	patterns, pairs := Select(corpus, opts.Pattern, opts.MaxPatterns, opts.Designs)

	// One job per cell; jobs are independent (fresh Program instances,
	// fresh machines) and RunAll keys results by index, so the report is
	// byte-identical at any worker count.
	jobs := make([]harness.Job[CellResult], 0, len(patterns)*len(pairs))
	for _, p := range patterns {
		for _, pr := range pairs {
			p, pr := p, pr
			jobs = append(jobs, harness.Job[CellResult]{
				Label: fmt.Sprintf("litmus %s/%s", p.Name, pr.Order),
				Run:   func() (CellResult, error) { return runCell(p, pr.Order, pr.Machine, opts.PointBudget), nil },
			})
		}
	}
	results := harness.RunAll(jobs, opts.Parallel, opts.Progress)

	rep := Report{Patterns: len(patterns), Designs: len(pairs)}
	for _, jr := range results {
		c := jr.Result
		if jr.Err != nil { // job panic; runCell itself never errors
			c.Failures = append(c.Failures, jr.Err.Error())
		}
		if c.Static {
			rep.OrderedCells++
		} else {
			rep.UnorderedCells++
			if c.Witnessed {
				rep.Witnessed++
			}
		}
		if c.Refuted {
			rep.Refuted++
		}
		if c.Static != c.Expected {
			rep.Mismatches++
		}
		if len(c.Failures) > 0 {
			rep.FailedCells++
		}
		rep.Trials += c.Trials
		rep.Cells = append(rep.Cells, c)
	}
	return rep
}

// runCell runs one pattern × design cell: boundary discovery, then one
// crash trial per boundary-aligned point, each on a fresh Program.
func runCell(p Pattern, od dataflow.OrderDesign, md machine.Design, budget int) CellResult {
	cell := CellResult{
		Pattern:  p.Name,
		Design:   od.String(),
		Static:   StaticOrdered(p, od),
		Expected: p.Expected(od),
	}
	spec := harness.TrialSpec{
		Design: md,
		Params: workload.Params{Threads: p.NThreads(), Ops: 1, Seed: 1},
	}
	bounds, err := harness.DiscoverBoundariesFor(spec, NewProgram(p, od))
	if err != nil {
		cell.Failures = append(cell.Failures, fmt.Sprintf("boundary discovery: %v", err))
		return cell
	}
	points := bounds.Points(budget)
	cell.Points = len(points)
	for _, pt := range points {
		prog := NewProgram(p, od)
		spec.Point = pt
		out, err := harness.RunTrialWith(spec, prog)
		cell.Trials++
		if err != nil {
			cell.Failures = append(cell.Failures, fmt.Sprintf("%s: %v", pt.Label, err))
			continue
		}
		if out.Crashed {
			cell.Crashed++
		}
		if out.VerifyErr != nil {
			if cell.Static && strings.Contains(out.VerifyErr.Error(), "ORDERED claim refuted") {
				cell.Refuted = true
				cell.Failures = append(cell.Failures, fmt.Sprintf("%s: %v", pt.Label, out.VerifyErr))
			} else {
				cell.Failures = append(cell.Failures, fmt.Sprintf("%s: verify: %v", pt.Label, out.VerifyErr))
			}
			continue
		}
		if prog.Witnessed {
			cell.Witnessed = true
		}
	}
	return cell
}
