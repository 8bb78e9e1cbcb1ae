// mc-check: schema and gate validation of a pmemspec-mc -json report.
// ci.sh runs the model-checking campaign, captures the report, and this
// subcommand decides whether it constitutes a passing stage: the report
// must parse into the full schema, cover the required corpus and design
// breadth (the default floor is the 40-pattern single-threaded corpus
// floor plus the 12-pattern multi-threaded one), and uphold the
// exhaustive contract — zero ORDERED claims refuted on any schedule ×
// crash point, zero disagreements between the order-lattice fold and
// the corpus truth tables, zero cell failures, zero capped cells. The
// explored schedule total must also stay strictly below the unreduced
// interleaving bound: a reduction layer that stops pruning has silently
// degenerated into brute force (or, worse, into exploring nothing).
package main

import (
	"flag"
	"fmt"
	"os"

	"pmemspec/internal/mc"
)

func mcCheck(args []string) int {
	fs := flag.NewFlagSet("mc-check", flag.ExitOnError)
	var (
		reportPath  = fs.String("report", "", "pmemspec-mc -json report to validate")
		minPatterns = fs.Int("min-patterns", 52, "minimum corpus patterns the campaign must cover")
		minDesigns  = fs.Int("min-designs", 5, "minimum designs the campaign must cover")
	)
	fs.Parse(args)
	if *reportPath == "" {
		fmt.Fprintln(os.Stderr, "pmemspec-ci: mc-check: -report is required")
		return 2
	}
	var rep mc.Report
	if err := loadReport(*reportPath, &rep); err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-ci: mc-check:", err)
		return 1
	}

	fail := 0
	if rep.Patterns < *minPatterns {
		fmt.Fprintf(os.Stderr, "mc-check: %d patterns covered, want >= %d\n", rep.Patterns, *minPatterns)
		fail++
	}
	if rep.Designs < *minDesigns {
		fmt.Fprintf(os.Stderr, "mc-check: %d designs covered, want >= %d\n", rep.Designs, *minDesigns)
		fail++
	}
	if want := rep.Patterns * rep.Designs; len(rep.Cells) != want {
		fmt.Fprintf(os.Stderr, "mc-check: %d cells, want %d (patterns × designs)\n", len(rep.Cells), want)
		fail++
	}
	if rep.Schedules == 0 || rep.Images == 0 {
		fmt.Fprintf(os.Stderr, "mc-check: nothing explored (%d schedules, %d images)\n", rep.Schedules, rep.Images)
		fail++
	}
	for _, c := range rep.Cells {
		if c.Schedules == 0 {
			fmt.Fprintf(os.Stderr, "mc-check: %s/%s explored no schedules\n", c.Pattern, c.Design)
			fail++
		}
	}
	if rep.Schedules >= rep.Bound {
		fmt.Fprintf(os.Stderr, "mc-check: explored %d schedules of unreduced bound %d — the partial-order reduction never pruned\n",
			rep.Schedules, rep.Bound)
		fail++
	}
	if rep.Refuted > 0 {
		fmt.Fprintf(os.Stderr, "mc-check: %d ORDERED cell(s) refuted by a schedule's crash image:\n", rep.Refuted)
		for _, c := range rep.Cells {
			if c.Refuted {
				fmt.Fprintf(os.Stderr, "  %s/%s: %v\n", c.Pattern, c.Design, c.Failures)
			}
		}
		fail++
	}
	if rep.Mismatches > 0 {
		fmt.Fprintf(os.Stderr, "mc-check: %d cell(s) where the fold disagrees with the corpus table:\n", rep.Mismatches)
		for _, c := range rep.Cells {
			if c.Static != c.Expected {
				fmt.Fprintf(os.Stderr, "  %s/%s: static=%v expected=%v\n", c.Pattern, c.Design, c.Static, c.Expected)
			}
		}
		fail++
	}
	if rep.FailedCells > 0 {
		fmt.Fprintf(os.Stderr, "mc-check: %d cell(s) with failures:\n", rep.FailedCells)
		for _, c := range rep.Cells {
			for _, f := range c.Failures {
				fmt.Fprintf(os.Stderr, "  %s/%s: %s\n", c.Pattern, c.Design, f)
			}
		}
		fail++
	}
	if rep.CappedCells > 0 {
		fmt.Fprintf(os.Stderr, "mc-check: %d cell(s) hit the schedule cap in a sweep that should be exhaustive\n", rep.CappedCells)
		fail++
	}
	if rep.UnorderedCells > 0 && rep.Witnessed == 0 {
		fmt.Fprintf(os.Stderr, "mc-check: none of the %d UNORDERED cells was witnessed — the checker cannot observe commit-without-data\n",
			rep.UnorderedCells)
		fail++
	}
	if fail > 0 {
		fmt.Fprintf(os.Stderr, "mc-check: %d problem(s)\n", fail)
		return 1
	}
	fmt.Printf("mc-check: ok (%s)\n", rep.Summary())
	return 0
}
