// Command pmemspec-bench regenerates the PMEM-Spec paper's evaluation:
// Figure 9 (8-core design comparison), Figure 10 (16/32/64 cores),
// Figure 11 (speculation-buffer sizes), Figure 12 (persist-path
// latencies), the §8.4 misspeculation study and the §5.1.3 detection
// ablation.
//
// Experiments enumerate their (workload × design × config) grids and run
// them on a host worker pool (-parallel); results are identical at any
// worker count. -bench-out records per-experiment wall-clock to a JSON
// file so successive revisions have a perf trajectory.
//
// -metrics-out writes the deterministic (design, workload) metrics grid;
// -timeline-out writes recorded event timelines as a Chrome trace
// (load in Perfetto or about:tracing); -debug-addr serves pprof/expvar.
//
// Usage:
//
//	pmemspec-bench -experiment fig9 [-ops 500] [-threads 8] [-seed 1] [-parallel 8] [-v]
//	pmemspec-bench -experiment all -json -bench-out BENCH_baseline.json
//	pmemspec-bench -experiment fig9 -metrics-out metrics.json -timeline-out trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"pmemspec/internal/debughttp"
	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
	"pmemspec/internal/metrics"
)

// benchOut is the wall-clock record -bench-out writes: one entry per
// experiment plus the host context needed to compare runs.
type benchOut struct {
	Parallel    int                `json:"parallel"` // resolved worker count
	NumCPU      int                `json:"num_cpu"`
	Threads     int                `json:"threads"`
	Ops         int                `json:"ops"`
	Seed        int64              `json:"seed"`
	Experiments map[string]float64 `json:"experiments_seconds"`
	Total       float64            `json:"total_seconds"`
}

func main() {
	var (
		experiment = flag.String("experiment", "fig9", "fig9|fig10|fig11|fig12|misspec|ablation|all")
		ops        = flag.Int("ops", 400, "failure-atomic operations per thread (paper: 100K; shapes stabilize far earlier)")
		threads    = flag.Int("threads", 8, "worker threads for single-panel experiments")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
		parallel   = flag.Int("parallel", 0, "concurrent experiment runs on the host (0 = GOMAXPROCS)")
		verbose    = flag.Bool("v", false, "print per-run progress")
		asJSON     = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
		benchFile  = flag.String("bench-out", "", "write per-experiment wall-clock JSON to this file")
		metricsOut = flag.String("metrics-out", "", "write the (design, workload) metrics grid JSON to this file")
		tlOut      = flag.String("timeline-out", "", "write recorded event timelines as a Chrome trace to this file")
		tlCell     = flag.String("timeline-cell", "PMEM-Spec/queue", `record timelines for this "Design/workload" cell ("" = every run; needs -timeline-out)`)
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address while running")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf    = flag.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-bench: cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-bench: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pmemspec-bench: memprofile:", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "pmemspec-bench: memprofile:", err)
			}
		}()
	}

	if *debugAddr != "" {
		// A bind failure is fatal: the user asked for the endpoint, and
		// running the whole sweep without it would silently drop it.
		addr, closer, err := debughttp.ServeDebug(*debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-bench: debug-addr:", err)
			os.Exit(1)
		}
		defer closer.Close()
		fmt.Fprintf(os.Stderr, "pmemspec-bench: pprof/expvar on http://%s/debug/pprof/\n", addr)
	}

	runner := &harness.Runner{Parallel: *parallel}
	if *verbose {
		runner.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if *metricsOut != "" {
		runner.Metrics = metrics.NewGrid()
	}
	if *tlOut != "" {
		want := *tlCell
		runner.Timeline = func(d machine.Design, name string) bool {
			return want == "" || d.String()+"/"+name == want
		}
	}

	emit := func(v any, table func()) error {
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(v)
		}
		table()
		return nil
	}

	run := func(name string) error {
		switch name {
		case "fig9":
			rows, err := runner.Fig9(*threads, *ops, *seed)
			if err != nil {
				return err
			}
			return emit(map[string]any{"experiment": "fig9", "threads": *threads, "rows": rows, "geomeans": harness.Geomeans(rows)}, func() {
				harness.PrintFig9(os.Stdout, fmt.Sprintf("Figure 9 — %d cores (normalized to IntelX86)", *threads), rows)
			})
		case "fig10":
			panels, err := runner.Fig10([]int{16, 32, 64}, *ops, *seed)
			if err != nil {
				return err
			}
			return emit(map[string]any{"experiment": "fig10", "panels": panels}, func() {
				harness.PrintFig10(os.Stdout, panels)
			})
		case "fig11":
			pts, err := runner.Fig11(*threads, *ops, *seed)
			if err != nil {
				return err
			}
			return emit(map[string]any{"experiment": "fig11", "points": pts}, func() {
				harness.PrintFig11(os.Stdout, pts)
			})
		case "fig12":
			pts, err := runner.Fig12(*threads, *ops, *seed)
			if err != nil {
				return err
			}
			return emit(map[string]any{"experiment": "fig12", "points": pts}, func() {
				harness.PrintFig12(os.Stdout, pts)
			})
		case "misspec":
			res, err := runner.MisspecStudy(*threads, *ops, *seed)
			if err != nil {
				return err
			}
			return emit(map[string]any{"experiment": "misspec", "result": res}, func() {
				harness.PrintMisspec(os.Stdout, res)
			})
		case "ablation":
			res, err := runner.DetectionAblation(*threads, *ops, *seed)
			if err != nil {
				return err
			}
			return emit(map[string]any{"experiment": "ablation", "result": res}, func() {
				harness.PrintAblation(os.Stdout, res)
			})
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = []string{"fig9", "fig10", "fig11", "fig12", "misspec", "ablation"}
	}
	record := benchOut{
		Parallel:    *parallel,
		NumCPU:      runtime.NumCPU(),
		Threads:     *threads,
		Ops:         *ops,
		Seed:        *seed,
		Experiments: map[string]float64{},
	}
	if record.Parallel <= 0 {
		record.Parallel = runtime.GOMAXPROCS(0)
	}
	for _, name := range names {
		// Host elapsed time is the whole point of this tool; the
		// simulator's own outputs stay cycle-derived.
		start := time.Now() //lint:allow simdeterminism
		if err := run(name); err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-bench:", err)
			os.Exit(1)
		}
		elapsed := time.Since(start).Seconds() //lint:allow simdeterminism
		record.Experiments[name] = elapsed
		record.Total += elapsed
	}
	if *benchFile != "" {
		data, err := json.MarshalIndent(record, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-bench: bench-out:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pmemspec-bench: wall-clock written to %s (total %.1fs at parallel=%d)\n",
			*benchFile, record.Total, record.Parallel)
	}
	if *metricsOut != "" {
		if err := writeTo(*metricsOut, runner.Metrics.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-bench: metrics-out:", err)
			os.Exit(1)
		}
	}
	if *tlOut != "" {
		if err := writeTo(*tlOut, func(w io.Writer) error {
			return metrics.WriteTrace(w, runner.Timelines)
		}); err != nil {
			fmt.Fprintln(os.Stderr, "pmemspec-bench: timeline-out:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pmemspec-bench: %d timeline(s) written to %s (load in Perfetto / about:tracing)\n",
			len(runner.Timelines), *tlOut)
	}
}

// writeTo streams one export into a freshly created file.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
