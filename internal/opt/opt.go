// Package opt closes the optimize→simulate→verify loop: it runs one
// optimization analyzer over the module's workloads, applies the
// suggested edits to a sandboxed copy of the module, re-analyzes the
// copy to show every suggestion was consumed, re-simulates the edited
// workloads through the harness (by compiling and running the sandbox
// with `go run`), cross-checks that the crash campaign stays green,
// and reports simulated kernel-time deltas per (design, workload,
// optimization).
//
// Soundness is layered, after "Lost in Interpretation": each analyzer
// carries a static argument (documented on the analyzer), the merged
// code must re-analyze clean, and the crash campaign is the final
// oracle — a rewrite that breaks a workload invariant under crash +
// misspeculation injection fails the run regardless of how plausible
// the static argument was.
//
// Every field of the report is simulation-deterministic: two runs over
// the same tree produce byte-identical JSON.
package opt

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"pmemspec/internal/analysis"
	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
	"pmemspec/internal/workload"
)

// Config selects what the loop runs.
type Config struct {
	// Root is the module root to optimize.
	Root string
	// Optimizations are analyzer names from analysis.OptAnalyzers();
	// nil selects all of them, in registry order.
	Optimizations []string
	// Workloads are harness workload names; they must resolve through
	// workload.ByName.
	Workloads []string
	// Designs are the simulated designs; nil selects machine.AllDesigns.
	Designs []machine.Design
	// Params configures every simulation and campaign run.
	Params workload.Params
	// Campaign tunes the crash-campaign safety gate; zero values pick
	// the defaults below.
	Campaign CampaignKnobs
	// KeepSandbox leaves the sandbox directories on disk (for
	// debugging) and records their paths in the report.
	KeepSandbox bool
}

// CampaignKnobs are the crash-campaign parameters of the verify leg.
type CampaignKnobs struct {
	Points         int   // uniform crash points per cell (default 2)
	MaxNS          int64 // latest uniform crash point (default 100_000)
	BoundaryBudget int   // boundary instants per cell (default 3)
	MaxPoints      int   // merged crash-point cap per cell (default 8)
}

func (k CampaignKnobs) withDefaults() CampaignKnobs {
	if k.Points == 0 {
		k.Points = 2
	}
	if k.MaxNS == 0 {
		k.MaxNS = 100_000
	}
	if k.BoundaryBudget == 0 {
		k.BoundaryBudget = 3
	}
	if k.MaxPoints == 0 {
		k.MaxPoints = 8
	}
	return k
}

// Finding is one analyzer diagnostic in the report (module-relative).
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Message string `json:"message"`
	Skipped bool   `json:"skipped,omitempty"` // edit dropped by overlap
}

// CellResult is one (workload, design) measurement.
type CellResult struct {
	Workload  string `json:"workload"`
	Design    string `json:"design"`
	Baseline  int64  `json:"baseline_ns"`
	Optimized int64  `json:"optimized_ns"`
	Delta     int64  `json:"delta_ns"` // baseline - optimized; positive = faster
}

// OptReport is the per-optimization section of the report.
type OptReport struct {
	Name               string       `json:"optimization"`
	Findings           []Finding    `json:"findings"`
	EditsApplied       int          `json:"edits_applied"`
	EditsSkipped       int          `json:"edits_skipped"`
	ReanalysisFindings int          `json:"reanalysis_findings"`
	CampaignTrials     int          `json:"campaign_trials"`
	CampaignViolations int          `json:"campaign_violations"`
	CampaignFailures   int          `json:"campaign_failures"`
	Results            []CellResult `json:"results"`
	Sandbox            string       `json:"sandbox,omitempty"` // kept only with KeepSandbox
}

// Report is the full loop result.
type Report struct {
	Workloads     []string    `json:"workloads"`
	Designs       []string    `json:"designs"`
	Threads       int         `json:"threads"`
	Ops           int         `json:"ops"`
	DataSize      int         `json:"data_size"`
	Seed          int64       `json:"seed"`
	Optimizations []OptReport `json:"optimizations"`
}

// Green reports whether every safety gate of the loop held: clean
// re-analysis and a green campaign for every optimization that
// produced edits.
func (r *Report) Green() bool {
	for _, o := range r.Optimizations {
		if o.ReanalysisFindings != 0 || o.CampaignViolations != 0 || o.CampaignFailures != 0 {
			return false
		}
	}
	return true
}

// TotalDelta sums the positive evidence: simulated nanoseconds saved
// across all cells.
func (r *Report) TotalDelta() int64 {
	var sum int64
	for _, o := range r.Optimizations {
		for _, c := range o.Results {
			sum += c.Delta
		}
	}
	return sum
}

// DesignByName parses a machine design name as printed by
// Design.String ("IntelX86", "DPO", "HOPS", "StrandWeaver",
// "PMEM-Spec").
func DesignByName(name string) (machine.Design, error) {
	for _, d := range machine.AllDesigns {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("opt: unknown design %q", name)
}

// optAnalyzer resolves one optimization analyzer by name.
func optAnalyzer(name string) (*analysis.Analyzer, error) {
	for _, a := range analysis.OptAnalyzers() {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("opt: unknown optimization %q", name)
}

// Run executes the full loop and returns the report.
func Run(cfg Config) (*Report, error) {
	root, err := filepath.Abs(cfg.Root)
	if err != nil {
		return nil, err
	}
	names := cfg.Optimizations
	if len(names) == 0 {
		for _, a := range analysis.OptAnalyzers() {
			names = append(names, a.Name)
		}
	}
	designs := cfg.Designs
	if len(designs) == 0 {
		designs = machine.AllDesigns
	}
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("opt: no workloads selected")
	}
	for _, w := range cfg.Workloads {
		if _, err := workload.ByName(w); err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Workloads: cfg.Workloads,
		Threads:   cfg.Params.Threads,
		Ops:       cfg.Params.Ops,
		DataSize:  cfg.Params.DataSize,
		Seed:      cfg.Params.Seed,
	}
	for _, d := range designs {
		rep.Designs = append(rep.Designs, d.String())
	}

	// Baselines once, in-process: the driver binary embeds the unedited
	// tree by construction (it is built from it).
	baseline := map[[2]string]int64{}
	for _, wname := range cfg.Workloads {
		for _, d := range designs {
			w, err := workload.ByName(wname)
			if err != nil {
				return nil, err
			}
			res, err := harness.Run(d, w, cfg.Params)
			if err != nil {
				return nil, fmt.Errorf("opt: baseline %s/%s: %w", wname, d, err)
			}
			baseline[[2]string{wname, d.String()}] = int64(res.KernelTime)
		}
	}

	for _, name := range names {
		or, err := runOne(root, name, cfg, designs, baseline)
		if err != nil {
			return nil, err
		}
		rep.Optimizations = append(rep.Optimizations, *or)
	}
	return rep, nil
}

// runOne drives the loop for a single optimization analyzer.
func runOne(root, name string, cfg Config, designs []machine.Design, baseline map[[2]string]int64) (*OptReport, error) {
	az, err := optAnalyzer(name)
	if err != nil {
		return nil, err
	}
	or := &OptReport{Name: name, Findings: []Finding{}, Results: []CellResult{}}

	// Analyze the module's workload layer.
	l, err := analysis.NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load("./internal/workload")
	if err != nil {
		return nil, err
	}
	diags, err := analysis.RunAnalyzers(l.Fset, pkgs, []*analysis.Analyzer{az})
	if err != nil {
		return nil, err
	}

	// No findings: the loop degenerates to baseline == optimized. Cells
	// still appear so the table shows the zero explicitly.
	if len(diags) == 0 {
		for _, wname := range cfg.Workloads {
			for _, d := range designs {
				b := baseline[[2]string{wname, d.String()}]
				or.Results = append(or.Results, CellResult{
					Workload: wname, Design: d.String(),
					Baseline: b, Optimized: b, Delta: 0,
				})
			}
		}
		return or, nil
	}

	// Sandbox: copy the module, apply the edits there.
	sandbox, err := os.MkdirTemp("", "pmemspec-opt-"+name+"-")
	if err != nil {
		return nil, err
	}
	if cfg.KeepSandbox {
		or.Sandbox = sandbox
	} else {
		defer os.RemoveAll(sandbox)
	}
	if err := copyModule(root, sandbox); err != nil {
		return nil, err
	}

	skippedEdits := map[*analysis.SuggestedEdit]bool{}
	byFile := analysis.CollectEdits(diags)
	files := make([]string, 0, len(byFile))
	for f := range byFile {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, file := range files {
		rel, err := filepath.Rel(root, file)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("opt: edit target %s is outside the module", file)
		}
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		out, applied, skipped, err := analysis.ApplyEditsDetailed(src, byFile[file])
		if err != nil {
			return nil, fmt.Errorf("opt: applying edits to %s: %w", rel, err)
		}
		or.EditsApplied += len(applied)
		or.EditsSkipped += len(skipped)
		for _, e := range skipped {
			skippedEdits[e] = true
		}
		if err := os.WriteFile(filepath.Join(sandbox, filepath.FromSlash(rel)), out, 0o644); err != nil {
			return nil, err
		}
	}
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.File)
		if err != nil {
			rel = d.File
		}
		or.Findings = append(or.Findings, Finding{
			File: filepath.ToSlash(rel), Line: d.Line, Message: d.Message,
			Skipped: d.Edit != nil && skippedEdits[d.Edit],
		})
	}

	// Re-analyze the sandbox: every suggestion must be consumed.
	l2, err := analysis.NewLoader(sandbox)
	if err != nil {
		return nil, err
	}
	pkgs2, err := l2.Load("./internal/workload")
	if err != nil {
		return nil, fmt.Errorf("opt: sandbox for %s does not type-check after edits: %w", name, err)
	}
	diags2, err := analysis.RunAnalyzers(l2.Fset, pkgs2, []*analysis.Analyzer{az})
	if err != nil {
		return nil, err
	}
	or.ReanalysisFindings = len(diags2)

	// Re-simulate the edited tree per (workload, design) cell.
	for _, wname := range cfg.Workloads {
		for _, d := range designs {
			b := baseline[[2]string{wname, d.String()}]
			opt, err := measureSandbox(sandbox, wname, d, cfg.Params)
			if err != nil {
				return nil, fmt.Errorf("opt: %s: simulating %s/%s in sandbox: %w", name, wname, d, err)
			}
			or.Results = append(or.Results, CellResult{
				Workload: wname, Design: d.String(),
				Baseline: b, Optimized: opt, Delta: b - opt,
			})
		}
	}

	// Crash-campaign safety gate on the edited tree.
	campDesigns := make([]string, 0, len(designs))
	for _, d := range designs {
		campDesigns = append(campDesigns, d.String())
	}
	camp, err := campaignSandbox(sandbox, cfg.Workloads, campDesigns, cfg.Params, cfg.Campaign.withDefaults())
	if err != nil {
		return nil, fmt.Errorf("opt: %s: crash campaign in sandbox: %w", name, err)
	}
	or.CampaignTrials = camp.Trials
	or.CampaignViolations = camp.Violations
	or.CampaignFailures = camp.Failures
	return or, nil
}

// MeasureOut is the inner-process protocol for one simulation cell.
type MeasureOut struct {
	Workload  string `json:"workload"`
	Design    string `json:"design"`
	KernelNS  int64  `json:"kernel_ns"`
	Committed uint64 `json:"committed"`
}

// CampaignOut is the inner-process protocol for the campaign gate.
type CampaignOut struct {
	Trials     int `json:"trials"`
	Violations int `json:"violations"`
	Failures   int `json:"failures"`
}

// Measure runs one cell in-process: the inner `-measure` mode of
// pmemspec-opt calls this inside the sandboxed module.
func Measure(wname string, d machine.Design, p workload.Params) (*MeasureOut, error) {
	w, err := workload.ByName(wname)
	if err != nil {
		return nil, err
	}
	res, err := harness.Run(d, w, p)
	if err != nil {
		return nil, err
	}
	return &MeasureOut{Workload: wname, Design: d.String(), KernelNS: int64(res.KernelTime), Committed: res.Committed}, nil
}

// Campaign runs the crash-campaign gate in-process: the inner
// `-campaign` mode of pmemspec-opt calls this inside the sandbox.
func Campaign(workloads, designNames []string, p workload.Params, k CampaignKnobs) (*CampaignOut, error) {
	k = k.withDefaults()
	var ds []machine.Design
	for _, n := range designNames {
		d, err := DesignByName(n)
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	rep, err := harness.RunCampaign(harness.CampaignConfig{
		Designs:        ds,
		Workloads:      workloads,
		Params:         p,
		Points:         k.Points,
		MaxNS:          k.MaxNS,
		Boundaries:     true,
		BoundaryBudget: k.BoundaryBudget,
		MaxPoints:      k.MaxPoints,
		Inject:         harness.InjectionPlan{StalePeriodNS: 3_000, OOOPeriodNS: 5_000, Count: 4},
	})
	if err != nil {
		return nil, err
	}
	return &CampaignOut{Trials: len(rep.Trials), Violations: rep.Violations, Failures: rep.Failures}, nil
}

// measureSandbox compiles and runs the sandboxed tree for one cell via
// `go run ./cmd/pmemspec-opt -measure`.
func measureSandbox(sandbox, wname string, d machine.Design, p workload.Params) (int64, error) {
	out, err := runInner(sandbox,
		"-measure",
		"-workload", wname,
		"-design", d.String(),
		"-threads", fmt.Sprint(p.Threads),
		"-ops", fmt.Sprint(p.Ops),
		"-datasize", fmt.Sprint(p.DataSize),
		"-scale", fmt.Sprint(p.Scale),
		"-seed", fmt.Sprint(p.Seed),
	)
	if err != nil {
		return 0, err
	}
	var m MeasureOut
	if err := json.Unmarshal(out, &m); err != nil {
		return 0, fmt.Errorf("parsing -measure output %q: %w", out, err)
	}
	return m.KernelNS, nil
}

// campaignSandbox runs the campaign gate in the sandboxed tree via
// `go run ./cmd/pmemspec-opt -campaign`.
func campaignSandbox(sandbox string, workloads, designs []string, p workload.Params, k CampaignKnobs) (*CampaignOut, error) {
	out, err := runInner(sandbox,
		"-campaign",
		"-workload", strings.Join(workloads, ","),
		"-design", strings.Join(designs, ","),
		"-threads", fmt.Sprint(p.Threads),
		"-ops", fmt.Sprint(p.Ops),
		"-datasize", fmt.Sprint(p.DataSize),
		"-scale", fmt.Sprint(p.Scale),
		"-seed", fmt.Sprint(p.Seed),
		"-points", fmt.Sprint(k.Points),
		"-maxns", fmt.Sprint(k.MaxNS),
		"-boundary-budget", fmt.Sprint(k.BoundaryBudget),
		"-max-points", fmt.Sprint(k.MaxPoints),
	)
	if err != nil {
		return nil, err
	}
	var c CampaignOut
	if err := json.Unmarshal(out, &c); err != nil {
		return nil, fmt.Errorf("parsing -campaign output %q: %w", out, err)
	}
	return &c, nil
}

// runInner executes the sandbox's own pmemspec-opt in inner mode.
func runInner(sandbox string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"run", "./cmd/pmemspec-opt"}, args...)...)
	cmd.Dir = sandbox
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go run in sandbox: %w\n%s", err, stderr.String())
	}
	return out, nil
}

// copyModule copies the Go module at root into dst: go.mod/go.sum and
// every .go file, preserving layout, skipping VCS metadata and
// testdata (the sandbox only needs to compile and analyze).
func copyModule(root, dst string) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// FormatTable renders the report as a fixed-width table for stderr.
func FormatTable(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-10s %-13s %12s %12s %12s  %s\n",
		"OPTIMIZATION", "WORKLOAD", "DESIGN", "BASELINE", "OPTIMIZED", "DELTA", "NOTE")
	for _, o := range r.Optimizations {
		note := fmt.Sprintf("%d edits", o.EditsApplied)
		if o.EditsSkipped > 0 {
			note += fmt.Sprintf(" (%d skipped)", o.EditsSkipped)
		}
		if o.ReanalysisFindings > 0 {
			note += fmt.Sprintf(" REANALYSIS DIRTY (%d)", o.ReanalysisFindings)
		}
		if o.CampaignViolations+o.CampaignFailures > 0 {
			note += fmt.Sprintf(" CAMPAIGN RED (%d/%d)", o.CampaignViolations, o.CampaignFailures)
		}
		for i, c := range o.Results {
			n := ""
			if i == 0 {
				n = note
			}
			fmt.Fprintf(&b, "%-14s %-10s %-13s %12d %12d %12d  %s\n",
				o.Name, c.Workload, c.Design, c.Baseline, c.Optimized, c.Delta, n)
		}
	}
	return b.String()
}
