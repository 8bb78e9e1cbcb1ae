// Package harness runs the paper's experiments: it assembles a machine,
// OS layer, failure-atomic runtime and workload, executes the measured
// multithreaded kernel (setup excluded, as in §8.1), and collects
// throughput and event statistics. The experiment drivers in this
// package regenerate every evaluation figure: Figure 9 (8-core
// comparison), Figure 10 (16/32/64 cores), Figure 11 (speculation-buffer
// sizes), Figure 12 (persist-path latencies), the §8.4 misspeculation
// study, and the §5.1.3-vs-§5.1.4 detection ablation.
package harness

import (
	"fmt"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/machine"
	"pmemspec/internal/metrics"
	"pmemspec/internal/osint"
	"pmemspec/internal/sim"
	"pmemspec/internal/workload"
)

// Result is the outcome of one (design, workload) run.
type Result struct {
	Design     machine.Design
	Workload   string
	Threads    int
	Committed  uint64   // committed FASEs across all threads
	KernelTime sim.Time // measured multithreaded phase makespan
	Throughput float64  // committed FASEs per simulated second
	MStats     machine.Stats
	RStats     fatomic.Stats
	// Metrics is the run's merged observability snapshot (machine
	// components + runtime + OS relay). Timeline is non-nil only when
	// the run was configured with WithTimeline. Both are excluded from
	// the Result's JSON: the grid/trace exports serialize them.
	Metrics  metrics.Snapshot  `json:"-"`
	Timeline *metrics.Timeline `json:"-"`
}

// Option tweaks the machine configuration before a run.
type Option func(*machine.Config)

// WithSpecBufEntries overrides the speculation-buffer capacity (Fig 11).
func WithSpecBufEntries(n int) Option {
	return func(c *machine.Config) { c.SpecBufEntries = n }
}

// WithPathLatencyNS overrides the persist-path latency (Fig 12, §8.4).
func WithPathLatencyNS(ns int64) Option {
	return func(c *machine.Config) { c.Path.Latency = sim.NS(ns) }
}

// WithFetchBasedDetection selects the rejected §5.1.3 scheme (ablation).
func WithFetchBasedDetection() Option {
	return func(c *machine.Config) { c.FetchBasedDetection = true }
}

// WithSmallLLC shrinks the LLC (misspeculation study: the §8.4 recipe
// needs the conflict-eviction sequence to fit in the speculation
// window).
func WithSmallLLC(bytes, ways int) Option {
	return func(c *machine.Config) {
		c.LLCBytes = bytes
		c.LLCWays = ways
	}
}

// WithTimeline enables the machine's event-timeline recorder; the run's
// Result then carries the recorded timeline.
func WithTimeline() Option {
	return func(c *machine.Config) { c.Timeline = true }
}

// WithCancel wires cooperative cancellation into the run: cancel is
// polled from a kernel watch every ~50 µs of simulated time, and when
// it reports true the run stops and returns machine.ErrCanceled. The
// callback may read cross-goroutine state (an atomic flag, a context's
// Err); the serve layer uses this for per-job timeouts and client
// cancellation. Uncancelled runs produce byte-identical results with or
// without the option.
func WithCancel(cancel func() bool) Option {
	return func(c *machine.Config) { c.Cancel = cancel }
}

// Run executes workload w on a fresh machine of the given design with
// lazy misspeculation recovery.
func Run(design machine.Design, w workload.Workload, p workload.Params, opts ...Option) (Result, error) {
	return run(design, w, p, fatomic.Lazy, opts...)
}

// RunWithMode is Run with an explicit recovery mode (lazy vs eager).
func RunWithMode(design machine.Design, w workload.Workload, p workload.Params, mode fatomic.Mode, opts ...Option) (Result, error) {
	return run(design, w, p, mode, opts...)
}

// execute spawns the workers, runs setup + the measured kernel, and
// verifies the workload invariants on the coherent image.
func execute(m *machine.Machine, rt *fatomic.Runtime, env *workload.Env, w workload.Workload, p workload.Params) (Result, error) {
	barrier := sim.NewBarrier(p.Threads)
	starts := make([]sim.Time, p.Threads)
	ends := make([]sim.Time, p.Threads)
	_, logFree := w.(workload.LogFree)
	for tid := 0; tid < p.Threads; tid++ {
		tid := tid
		m.Spawn(fmt.Sprintf("worker%d", tid), func(t *machine.Thread) {
			if !logFree {
				rt.WarmLog(t) // log pre-fault belongs to initialization
			}
			if tid == 0 {
				w.Setup(env, t)
			}
			barrier.Wait(t.Sim())
			starts[tid] = t.Clock()
			w.Run(env, t, tid)
			ends[tid] = t.Clock()
		})
	}
	if err := m.Run(); err != nil {
		return Result{}, fmt.Errorf("harness: %s/%s: %w", m.Config().Design, w.Name(), err)
	}

	start := starts[0]
	var end sim.Time
	for _, e := range ends {
		if e > end {
			end = e
		}
	}
	res := Result{
		Design:     m.Config().Design,
		Workload:   w.Name(),
		Threads:    p.Threads,
		Committed:  rt.Stats.FASEs,
		KernelTime: end - start,
		MStats:     m.Stats(),
		RStats:     rt.Stats,
	}
	if res.KernelTime > 0 {
		res.Throughput = float64(res.Committed) / res.KernelTime.Seconds()
	}
	if err := w.Verify(m.Space().Arch, rt.Stats.FASEs); err != nil {
		return res, fmt.Errorf("harness: %s/%s verification: %w", m.Config().Design, w.Name(), err)
	}
	return res, nil
}

// runMetrics assembles one run's merged observability snapshot so far:
// the machine's components plus the failure-atomic runtime's counters
// and, when wired, the OS relay's.
func runMetrics(m *machine.Machine, rt *fatomic.Runtime, os *osint.OS) metrics.Snapshot {
	reg := metrics.NewRegistry()
	publishRuntime(reg, rt.Stats)
	if os != nil {
		os.Publish(reg)
	}
	return metrics.Merge(m.MetricsSnapshot(), reg.Snapshot())
}

// publishRuntime copies the runtime's end-of-run counters into the
// registry under component "fatomic".
func publishRuntime(r *metrics.Registry, s fatomic.Stats) {
	r.Counter("fatomic", "fases").Add(s.FASEs)
	r.Counter("fatomic", "aborts").Add(s.Aborts)
	r.Counter("fatomic", "faults_suppressed").Add(s.FaultsSuppressed)
	r.Counter("fatomic", "misspec_signals").Add(s.MisspecSignals)
	r.Counter("fatomic", "load_signals").Add(s.LoadSignals)
	r.Counter("fatomic", "store_signals").Add(s.StoreSignals)
	r.Counter("fatomic", "stage_retries").Add(s.StageRetries)
	r.Counter("fatomic", "undone_entries").Add(s.UndoneEntries)
}

// params builds the paper-style parameters for a benchmark: 64 B items,
// 1024 B for memcached (§8.1).
func params(name string, threads, ops int, seed int64) workload.Params {
	p := workload.Params{Threads: threads, Ops: ops, DataSize: 64, Seed: seed}
	if name == "memcached" {
		p.DataSize = 1024
	}
	return p
}
