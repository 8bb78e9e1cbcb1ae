// Command pmemspec-mc is the repository's persist-order checker: an
// exhaustive small-scope model checker over the persistency litmus
// corpus, the 44 single-threaded patterns followed by the 18
// multi-threaded ones. For every pattern × design cell it enumerates
// every non-equivalent thread interleaving (sleep-set dynamic
// partial-order reduction — two steps commute unless they touch the
// same cache block, the shared WPQ path, or the lock; a single-threaded
// pattern has exactly one), replays each schedule through the simulator
// under a controlled scheduler, and folds every reachable crash image
// from each run into the cell verdict. An ORDERED claim contradicted by
// any schedule's crash image fails the command; UNORDERED claims
// collect witnesses, including the cross-schedule ones a single
// default-dispatch run can miss.
//
// Output is deterministic for a fixed configuration, independent of
// -parallel: cells are keyed by (pattern, design) index, schedule
// enumeration is a fixed DFS order, and progress goes to stderr. An
// unknown -designs name exits 2; a selection with no cells exits 1.
//
// Usage:
//
//	pmemspec-mc                         # full corpus, exhaustive schedules
//	pmemspec-mc -pattern mt-lock -v     # one family, verbose
//	pmemspec-mc -pattern mt-            # the multi-threaded corpus only
//	pmemspec-mc -json > mc.json         # machine-readable report
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pmemspec/internal/analysis/dataflow"
	"pmemspec/internal/litmus"
	"pmemspec/internal/mc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pmemspec-mc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		designs  = fs.String("designs", "", "comma-separated design names to run (empty = all five)")
		pattern  = fs.String("pattern", "", "run only patterns whose name contains this substring")
		maxPat   = fs.Int("max-patterns", 0, "stride-subsample the corpus to at most N patterns (0 = all)")
		maxSched = fs.Int("max-schedules", 0, "cap explored schedules per cell (0 = exhaustive)")
		parallel = fs.Int("parallel", 0, "worker pool width (0 = GOMAXPROCS)")
		jsonOut  = fs.Bool("json", false, "write the JSON report to stdout instead of the summary")
		report   = fs.String("report", "", "write the JSON report to this file")
		list     = fs.Bool("list", false, "list the corpus with expected verdicts and exit")
		verbose  = fs.Bool("v", false, "per-cell progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		listCorpus(stdout)
		return 0
	}

	opts := mc.Options{
		Pattern:      *pattern,
		MaxPatterns:  *maxPat,
		MaxSchedules: *maxSched,
		Parallel:     *parallel,
	}
	if *designs != "" {
		opts.Designs = strings.Split(*designs, ",")
	}
	// Select matches design names case-insensitively and drops the ones
	// it does not know, so a typo would silently shrink the sweep.
	for _, d := range opts.Designs {
		if _, pairs := litmus.Select(nil, "", 0, []string{d}); len(pairs) == 0 {
			var valid []string
			for _, od := range dataflow.OrderDesigns() {
				valid = append(valid, od.String())
			}
			fmt.Fprintf(stderr, "pmemspec-mc: unknown design %q (valid: %s)\n", d, strings.Join(valid, ", "))
			return 2
		}
	}
	if *verbose {
		opts.Progress = func(label string) { fmt.Fprintln(stderr, label) }
	}

	rep := mc.Run(opts)
	if len(rep.Cells) == 0 {
		fmt.Fprintln(stderr, "pmemspec-mc: the selection has no cells")
		return 1
	}

	if *report != "" {
		if err := writeJSON(*report, rep); err != nil {
			fmt.Fprintln(stderr, "pmemspec-mc:", err)
			return 1
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "pmemspec-mc:", err)
			return 1
		}
	} else {
		printSummary(stdout, rep)
	}
	if !rep.Ok() {
		return 1
	}
	return 0
}

func listCorpus(w io.Writer) {
	fmt.Fprintf(w, "%-24s %-8s %-6s %s\n", "PATTERN", "THREADS", "OPS", "ORDERED ON")
	for _, p := range mc.Corpus() {
		var on []string
		for _, od := range dataflow.OrderDesigns() {
			if p.Expected(od) {
				on = append(on, od.String())
			}
		}
		ops := 0
		for t := 0; t < p.NThreads(); t++ {
			ops += len(p.ThreadOps(t))
		}
		fmt.Fprintf(w, "%-24s %-8d %-6d %s\n", p.Name, p.NThreads(), ops, strings.Join(on, ","))
	}
}

func printSummary(w io.Writer, rep mc.Report) {
	fmt.Fprintln(w, rep.Summary())
	for _, c := range rep.Cells {
		if c.Refuted || c.Static != c.Expected || len(c.Failures) > 0 {
			fmt.Fprintf(w, "  FAIL %s/%s: static=%v expected=%v refuted=%v\n",
				c.Pattern, c.Design, c.Static, c.Expected, c.Refuted)
			for _, f := range c.Failures {
				fmt.Fprintf(w, "       %s\n", f)
			}
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
