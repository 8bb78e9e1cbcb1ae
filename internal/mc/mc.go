package mc

import (
	"fmt"
	"strings"

	"pmemspec/internal/analysis/dataflow"
	"pmemspec/internal/harness"
	"pmemspec/internal/litmus"
	"pmemspec/internal/machine"
	"pmemspec/internal/workload"
)

// Options configures a model-checking campaign.
type Options struct {
	// Designs filters by canonical design name; empty runs all five.
	Designs []string
	// Pattern filters the corpus by substring match on pattern name.
	Pattern string
	// MaxPatterns stride-subsamples the corpus to at most this many
	// patterns (0: all), deterministically — quick CI always checks the
	// same cells.
	MaxPatterns int
	// MaxSchedules caps explored schedules per cell (0: exhaustive).
	// The DFS order is deterministic, so a capped cell always runs the
	// same schedule prefix.
	MaxSchedules int
	// Parallel is the worker count for the cell sweep (≤ 0: GOMAXPROCS).
	Parallel int
	// Progress, if non-nil, receives each cell label as it starts.
	Progress func(string)
}

// CellResult is the model-checking outcome for one pattern × design
// cell.
type CellResult struct {
	Pattern string `json:"pattern"`
	Design  string `json:"design"`
	// Static is the interleaving-quantified MT fold verdict.
	Static bool `json:"static_ordered"`
	// Expected is the corpus's hand-derived verdict; Static must match.
	Expected bool `json:"expected_ordered"`
	// Schedules is the number of non-equivalent schedules explored
	// (after sleep-set partial-order reduction).
	Schedules int `json:"schedules"`
	// Bound is the unreduced interleaving count the reduction pruned
	// against; Schedules ≤ Bound always, < when the DPOR layer bites.
	Bound int64 `json:"bound"`
	// Capped: the per-cell schedule cap stopped the enumeration early.
	Capped bool `json:"capped,omitempty"`
	// Images is the total crash-image chain length across schedules:
	// the number of schedule × crash-point outcomes examined.
	Images int `json:"images"`
	// UniqueImages counts distinct persisted snapshots after
	// fingerprint pruning; only these need classification.
	UniqueImages int `json:"unique_images"`
	// Witnessed: some schedule's crash image held commit-without-data.
	// Meaningful when !Static — it is the outcome a single-schedule
	// harness may miss.
	Witnessed bool `json:"witnessed"`
	// Refuted: a crash image held commit-without-data although the
	// fold claimed ORDERED. Any refuted cell fails the campaign.
	Refuted bool `json:"refuted"`
	// Failures are replay errors, torn images, or trial failures.
	Failures []string `json:"failures,omitempty"`
}

// Report is the deterministic campaign summary, cells in corpus ×
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
	CappedCells    int          `json:"capped_cells"`
	Schedules      int64        `json:"schedules"`
	Bound          int64        `json:"bound"`
	Images         int64        `json:"images"`
	UniqueImages   int64        `json:"unique_images"`
	Cells          []CellResult `json:"cells"`
}

// Ok reports whether the campaign upholds the exhaustive contract: no
// ORDERED claim refuted on any schedule × crash point, every fold
// verdict matching the corpus table, no failed cells.
func (r Report) Ok() bool {
	return r.Refuted == 0 && r.Mismatches == 0 && r.FailedCells == 0
}

// Summary is a one-line human rendering of the campaign outcome.
func (r Report) Summary() string {
	return fmt.Sprintf("%d patterns x %d designs: %d schedules (bound %d), %d images (%d unique), %d ordered cells upheld, %d/%d unordered witnessed, %d refuted, %d mismatches, %d failed, %d capped",
		r.Patterns, r.Designs, r.Schedules, r.Bound, r.Images, r.UniqueImages,
		r.OrderedCells, r.Witnessed, r.UnorderedCells, r.Refuted, r.Mismatches,
		r.FailedCells, r.CappedCells)
}

// Run model-checks the multi-threaded litmus corpus.
func Run(opts Options) Report {
	return RunCorpus(litmus.MTCorpus(), opts)
}

// RunCorpus is Run over an explicit pattern set (tests use small ones).
func RunCorpus(corpus []litmus.Pattern, opts Options) Report {
	patterns, pairs := litmus.Select(corpus, opts.Pattern, opts.MaxPatterns, opts.Designs)

	jobs := make([]harness.Job[CellResult], 0, len(patterns)*len(pairs))
	for _, p := range patterns {
		for _, pr := range pairs {
			p, pr := p, pr
			jobs = append(jobs, harness.Job[CellResult]{
				Label: fmt.Sprintf("mc %s/%s", p.Name, pr.Order),
				Run: func() (CellResult, error) {
					return runCell(p, pr.Order, pr.Machine, opts.MaxSchedules), nil
				},
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
		if c.Capped {
			rep.CappedCells++
		}
		rep.Schedules += int64(c.Schedules)
		rep.Bound += c.Bound
		rep.Images += int64(c.Images)
		rep.UniqueImages += int64(c.UniqueImages)
		rep.Cells = append(rep.Cells, c)
	}
	return rep
}

// runCell model-checks one pattern × design cell: enumerate the
// non-equivalent schedules statically, then run each through the
// simulator under the controlled scheduler, folding every schedule's
// crash-image chain into the cell verdict.
func runCell(p litmus.Pattern, od dataflow.OrderDesign, md machine.Design, maxSchedules int) CellResult {
	cell := CellResult{
		Pattern:  p.Name,
		Design:   od.String(),
		Static:   litmus.StaticOrdered(p, od),
		Expected: p.Expected(od),
	}
	enum := enumerate(p, od, maxSchedules)
	cell.Bound = enum.Bound
	cell.Capped = enum.Capped

	counts := p.StoreCounts()
	dataFinal := p.FinalValue(litmus.Data)
	commitFinal := p.FinalValue(litmus.Commit)
	unique := map[string]bool{}

	for si, script := range enum.Scripts {
		chain, err := runSchedule(p, od, md, script)
		cell.Schedules++
		if err != nil {
			cell.Failures = append(cell.Failures,
				fmt.Sprintf("schedule %d %v: %v", si, script, err))
			continue
		}
		cell.Images += len(chain)
		for _, vec := range chain {
			if !unique[fingerprint(vec)] {
				unique[fingerprint(vec)] = true
			}
			for v := range vec {
				if !legalValue(vec[v], v, counts[v]) {
					cell.Failures = append(cell.Failures,
						fmt.Sprintf("schedule %d %v: torn image: var %d holds %d, never written",
							si, script, v, vec[v]))
				}
			}
			if commitFinal != 0 && vec[litmus.Commit] == commitFinal && vec[litmus.Data] != dataFinal {
				if cell.Static {
					if !cell.Refuted {
						cell.Refuted = true
						cell.Failures = append(cell.Failures,
							fmt.Sprintf("schedule %d %v: ORDERED claim refuted: image %v holds commit %d without data %d",
								si, script, vec, commitFinal, dataFinal))
					}
				} else {
					cell.Witnessed = true
				}
			}
		}
	}
	cell.UniqueImages = len(unique)
	return cell
}

// runSchedule executes one schedule and returns its crash-image chain.
func runSchedule(p litmus.Pattern, od dataflow.OrderDesign, md machine.Design, script []int) ([][]uint64, error) {
	prog := litmus.NewProgram(p, od)
	r := newReplayer(prog, script, p.NThreads())
	prog.Hook = r.hook
	spec := harness.TrialSpec{
		Design:     md,
		Params:     workload.Params{Threads: p.NThreads(), Ops: 1, Seed: 1},
		Point:      harness.NoCrash,
		Instrument: r.install,
	}
	out, err := harness.RunTrialWith(spec, prog)
	if err != nil {
		return nil, err
	}
	if out.VerifyErr != nil {
		return nil, fmt.Errorf("final image verification: %w", out.VerifyErr)
	}
	return r.finish()
}

// legalValue reports whether a persisted value is zero or one of the
// variable's written values.
func legalValue(got uint64, v, count int) bool {
	if got == 0 {
		return true
	}
	for k := 0; k < count; k++ {
		if got == litmus.StoreValue(v, k) {
			return true
		}
	}
	return false
}

// fingerprint is the persistence-state key used to prune equivalent
// crash images across schedules.
func fingerprint(vec []uint64) string {
	var b strings.Builder
	for _, v := range vec {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}
