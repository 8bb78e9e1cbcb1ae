// Command pmemspec-ci is the repository's CI gate toolbox. Its first
// subcommand, bench-cmp, compares a fresh pmemspec-bench -bench-out
// record against a checked-in baseline and fails on per-experiment
// wall-clock regressions beyond a relative tolerance — the perf gate
// ci.sh runs on its small grid.
//
// Usage:
//
//	pmemspec-ci bench-cmp -baseline BENCH_baseline.json -current /tmp/bench.json [-tolerance 0.15]
//
// The comparison is one-sided: speedups never fail the gate. Records
// from mismatched configurations (threads/ops/seed) are refused, since
// their wall-clocks are not comparable. Records are decoded strictly,
// so one in an older schema is refused too; regenerate stale baselines
// with the current pmemspec-bench.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchRecord mirrors pmemspec-bench's -bench-out JSON.
type benchRecord struct {
	Parallel    int                `json:"parallel"`
	NumCPU      int                `json:"num_cpu"`
	Threads     int                `json:"threads"`
	Ops         int                `json:"ops"`
	Seed        int64              `json:"seed"`
	Experiments map[string]float64 `json:"experiments_seconds"`
	Total       float64            `json:"total_seconds"`
}

// cmpRow is one experiment's comparison outcome.
type cmpRow struct {
	Experiment string
	BaseS      float64
	CurS       float64
	Delta      float64 // (cur-base)/base
	Regressed  bool
	Note       string // non-empty: unpaired/unusable row; Regressed marks it fatal
}

// compare pairs the two records experiment by experiment. A current
// experiment slower than baseline*(1+tol) regresses. An experiment
// present in the baseline but missing from the current run fails the
// gate: a deleted or renamed experiment must force a baseline
// regeneration, not sail through unmeasured. Experiments only in the
// current run are informational (new experiments gate once they land in
// the baseline).
func compare(base, cur benchRecord, tol float64) ([]cmpRow, int) {
	names := map[string]bool{}
	for n := range base.Experiments {
		names[n] = true
	}
	for n := range cur.Experiments {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var rows []cmpRow
	regressions := 0
	for _, n := range sorted {
		b, inBase := base.Experiments[n]
		c, inCur := cur.Experiments[n]
		switch {
		case !inBase:
			rows = append(rows, cmpRow{Experiment: n, CurS: c, Note: "not in baseline"})
		case !inCur:
			rows = append(rows, cmpRow{Experiment: n, BaseS: b, Regressed: true,
				Note: "MISSING from current run — regenerate the baseline if the experiment was removed"})
			regressions++
		case b <= 0:
			rows = append(rows, cmpRow{Experiment: n, BaseS: b, CurS: c, Note: "non-positive baseline"})
		default:
			row := cmpRow{Experiment: n, BaseS: b, CurS: c, Delta: (c - b) / b}
			row.Regressed = c > b*(1+tol)
			if row.Regressed {
				regressions++
			}
			rows = append(rows, row)
		}
	}
	return rows, regressions
}

// configMismatch explains why two records are not comparable, or "".
func configMismatch(base, cur benchRecord) string {
	switch {
	case base.Threads != cur.Threads:
		return fmt.Sprintf("threads %d vs %d", base.Threads, cur.Threads)
	case base.Ops != cur.Ops:
		return fmt.Sprintf("ops %d vs %d", base.Ops, cur.Ops)
	case base.Seed != cur.Seed:
		return fmt.Sprintf("seed %d vs %d", base.Seed, cur.Seed)
	}
	return ""
}

func readRecord(path string) (benchRecord, error) {
	var r benchRecord
	if err := loadReport(path, &r); err != nil {
		return r, err
	}
	if len(r.Experiments) == 0 {
		return r, fmt.Errorf("%s: no experiments_seconds", path)
	}
	return r, nil
}

func benchCmp(args []string) int {
	fs := flag.NewFlagSet("bench-cmp", flag.ExitOnError)
	var (
		basePath = fs.String("baseline", "BENCH_baseline.json", "checked-in wall-clock baseline")
		curPath  = fs.String("current", "", "fresh pmemspec-bench -bench-out record")
		tol      = fs.Float64("tolerance", 0.15, "relative slowdown allowed per experiment")
	)
	fs.Parse(args)
	if *curPath == "" {
		fmt.Fprintln(os.Stderr, "pmemspec-ci: bench-cmp: -current is required")
		return 2
	}
	base, err := readRecord(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-ci: bench-cmp:", err)
		return 2
	}
	cur, err := readRecord(*curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmemspec-ci: bench-cmp:", err)
		return 2
	}
	if why := configMismatch(base, cur); why != "" {
		fmt.Fprintf(os.Stderr, "pmemspec-ci: bench-cmp: records not comparable: %s\n", why)
		return 2
	}
	if base.NumCPU != cur.NumCPU || base.Parallel != cur.Parallel {
		fmt.Fprintf(os.Stderr, "pmemspec-ci: bench-cmp: note: host context differs (cpus %d→%d, parallel %d→%d); wall-clocks may not be comparable\n",
			base.NumCPU, cur.NumCPU, base.Parallel, cur.Parallel)
	}

	rows, regressions := compare(base, cur, *tol)
	fmt.Printf("%-10s %10s %10s %8s  %s\n", "experiment", "base(s)", "cur(s)", "delta", "verdict")
	for _, r := range rows {
		if r.Note != "" {
			verdict := "SKIP"
			if r.Regressed {
				verdict = "FAIL"
			}
			fmt.Printf("%-10s %10.2f %10.2f %8s  %s (%s)\n", r.Experiment, r.BaseS, r.CurS, "-", verdict, r.Note)
			continue
		}
		verdict := "ok"
		if r.Regressed {
			verdict = fmt.Sprintf("REGRESSION (> +%.0f%%)", *tol*100)
		}
		fmt.Printf("%-10s %10.2f %10.2f %+7.1f%%  %s\n", r.Experiment, r.BaseS, r.CurS, r.Delta*100, verdict)
	}
	if regressions > 0 {
		fmt.Printf("%d experiment(s) regressed beyond ±%.0f%%\n", regressions, *tol*100)
		return 1
	}
	fmt.Println("bench-cmp: no regressions")
	return 0
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: pmemspec-ci bench-cmp|serve-smoke|opt-check|litmus-check|mc-check [flags]")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "bench-cmp":
		os.Exit(benchCmp(os.Args[2:]))
	case "serve-smoke":
		os.Exit(serveSmoke(os.Args[2:]))
	case "opt-check":
		os.Exit(optCheck(os.Args[2:]))
	case "litmus-check":
		os.Exit(litmusCheck(os.Args[2:]))
	case "mc-check":
		os.Exit(mcCheck(os.Args[2:]))
	default:
		fmt.Fprintf(os.Stderr, "pmemspec-ci: unknown subcommand %q (want bench-cmp, serve-smoke, opt-check, litmus-check or mc-check)\n", os.Args[1])
		os.Exit(2)
	}
}
