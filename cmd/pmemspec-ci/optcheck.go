// opt-check: schema and gate validation of a pmemspec-opt -json
// report. ci.sh runs the optimizer loop, captures the report, and this
// subcommand decides whether it constitutes a passing opt-loop stage:
// the report must parse into the full schema, every optimization that
// applied edits must re-analyze clean with a green crash campaign, and
// at least one optimization must both apply an edit and report a
// positive simulated saving — a loop that stops finding its planted
// optimization targets has silently broken.
package main

import (
	"flag"
	"fmt"
	"os"

	"pmemspec/internal/opt"
)

func optCheck(args []string) int {
	fs := flag.NewFlagSet("opt-check", flag.ExitOnError)
	reportPath := fs.String("report", "", "pmemspec-opt -json report to validate")
	fs.Parse(args)
	if *reportPath == "" {
		fmt.Fprintln(os.Stderr, "pmemspec-ci: opt-check: -report is required")
		return 2
	}
	var rep opt.Report
	if err := loadReport(*reportPath, &rep); err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-ci: opt-check:", err)
		return 1
	}

	fail := 0
	if len(rep.Workloads) == 0 || len(rep.Designs) == 0 || len(rep.Optimizations) == 0 {
		fmt.Fprintln(os.Stderr, "opt-check: report is empty (no workloads, designs or optimizations)")
		fail++
	}
	edited, saving := 0, 0
	for _, o := range rep.Optimizations {
		if len(o.Results) != len(rep.Workloads)*len(rep.Designs) {
			fmt.Fprintf(os.Stderr, "opt-check: %s: %d result cells, want %d (workloads × designs)\n",
				o.Name, len(o.Results), len(rep.Workloads)*len(rep.Designs))
			fail++
		}
		if o.ReanalysisFindings != 0 {
			fmt.Fprintf(os.Stderr, "opt-check: %s: re-analysis of the edited tree still reports %d findings\n",
				o.Name, o.ReanalysisFindings)
			fail++
		}
		if o.CampaignViolations != 0 || o.CampaignFailures != 0 {
			fmt.Fprintf(os.Stderr, "opt-check: %s: crash campaign not green (%d violations, %d failures)\n",
				o.Name, o.CampaignViolations, o.CampaignFailures)
			fail++
		}
		if o.EditsApplied > 0 {
			edited++
			if o.CampaignTrials == 0 {
				fmt.Fprintf(os.Stderr, "opt-check: %s: edits applied but no campaign trials ran\n", o.Name)
				fail++
			}
		}
		for _, c := range o.Results {
			if c.Delta > 0 {
				saving++
			}
		}
	}
	if edited == 0 {
		fmt.Fprintln(os.Stderr, "opt-check: no optimization applied any edit — the planted targets are gone")
		fail++
	}
	if saving == 0 {
		fmt.Fprintln(os.Stderr, "opt-check: no cell reports a positive simulated saving")
		fail++
	}
	if fail > 0 {
		fmt.Fprintf(os.Stderr, "opt-check: %d problem(s)\n", fail)
		return 1
	}
	fmt.Printf("opt-check: ok (%d optimizations, %d with edits, %d cells saving time)\n",
		len(rep.Optimizations), edited, saving)
	return 0
}
