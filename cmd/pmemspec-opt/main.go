// Command pmemspec-opt closes the optimize→simulate→verify loop: it
// runs the optimization analyzers (flushcoalesce, fencehoist) over the
// module's workloads, applies their suggested edits to a sandboxed
// copy, re-analyzes the copy, re-simulates the edited workloads and
// cross-checks the crash campaign, then reports simulated kernel-time
// deltas per (design, workload, optimization).
//
//	pmemspec-opt -workloads naivelog,naivescan [-opts flushcoalesce]
//	             [-designs IntelX86,DPO] [-threads 2] [-ops 12]
//	             [-json] [-keep-sandbox] [root]
//
// The report table goes to stderr; -json writes the deterministic
// machine report to stdout (byte-identical across runs of the same
// tree). The exit status is 1 when any safety gate fails: re-analysis
// of the edited tree still reports findings, or the crash campaign
// sees violations/failures.
//
// The -measure and -campaign flags select the inner modes the driver
// runs inside the sandbox via `go run`; they are not meant for direct
// use but are stable enough for scripting (JSON on stdout).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pmemspec/internal/machine"
	"pmemspec/internal/opt"
	"pmemspec/internal/workload"
)

func main() {
	var (
		workloads = flag.String("workloads", "naivelog,naivescan", "comma-separated workload names to optimize and re-simulate")
		optsFlag  = flag.String("opts", "", "comma-separated optimization analyzers (default: all of them)")
		designs   = flag.String("designs", "", "comma-separated design names (default: all designs)")
		threads   = flag.Int("threads", 2, "worker threads per simulation")
		ops       = flag.Int("ops", 12, "operations per thread")
		dataSize  = flag.Int("datasize", 64, "payload size in bytes")
		scale     = flag.Int("scale", 0, "workload scale (0 = workload default)")
		seed      = flag.Int64("seed", 11, "deterministic seed")
		jsonOut   = flag.Bool("json", false, "write the machine report as JSON to stdout")
		keep      = flag.Bool("keep-sandbox", false, "keep sandbox directories and record their paths")

		// Inner modes, run by the driver inside the sandbox.
		measure  = flag.Bool("measure", false, "inner mode: simulate one (workload, design) cell and print JSON")
		campaign = flag.Bool("campaign", false, "inner mode: run the crash-campaign gate and print JSON")
		wlFlag   = flag.String("workload", "", "inner mode: workload name(s)")
		design   = flag.String("design", "", "inner mode: design name(s)")
		points   = flag.Int("points", 2, "inner -campaign: uniform crash points per cell")
		maxNS    = flag.Int64("maxns", 100_000, "inner -campaign: latest uniform crash point (ns)")
		bBudget  = flag.Int("boundary-budget", 3, "inner -campaign: boundary instants per cell")
		maxPts   = flag.Int("max-points", 8, "inner -campaign: merged crash-point cap per cell")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: pmemspec-opt [flags] [module-root]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Closed optimize→simulate→verify loop over the optimization analyzers.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	params := workload.Params{Threads: *threads, Ops: *ops, DataSize: *dataSize, Scale: *scale, Seed: *seed}

	switch {
	case *measure:
		d, err := opt.DesignByName(*design)
		if err != nil {
			fatal(err)
		}
		out, err := opt.Measure(*wlFlag, d, params)
		if err != nil {
			fatal(err)
		}
		emit(out)
	case *campaign:
		out, err := opt.Campaign(split(*wlFlag), split(*design), params, opt.CampaignKnobs{
			Points: *points, MaxNS: *maxNS, BoundaryBudget: *bBudget, MaxPoints: *maxPts,
		})
		if err != nil {
			fatal(err)
		}
		emit(out)
	default:
		root := "."
		if flag.NArg() > 0 {
			root = flag.Arg(0)
		}
		var ds []machine.Design
		for _, n := range split(*designs) {
			d, err := opt.DesignByName(n)
			if err != nil {
				fatal(err)
			}
			ds = append(ds, d)
		}
		rep, err := opt.Run(opt.Config{
			Root:          root,
			Optimizations: split(*optsFlag),
			Workloads:     split(*workloads),
			Designs:       ds,
			Params:        params,
			KeepSandbox:   *keep,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(os.Stderr, opt.FormatTable(rep))
		fmt.Fprintf(os.Stderr, "pmemspec-opt: total simulated savings %d ns across all cells\n", rep.TotalDelta())
		if *jsonOut {
			emit(rep)
		}
		if !rep.Green() {
			fmt.Fprintln(os.Stderr, "pmemspec-opt: FAIL: a safety gate did not hold (see table notes)")
			os.Exit(1)
		}
	}
}

// split parses a comma-separated flag, dropping empty elements.
func split(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// emit writes v as indented JSON to stdout.
func emit(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pmemspec-opt: %v\n", err)
	os.Exit(1)
}
