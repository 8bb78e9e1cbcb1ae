// Command perfbench is the repository's benchmark. It runs one of three
// workloads — the Fig 9 grid, a boundary-aligned crash campaign with
// misspeculation injection, or the exhaustive model-checker sweep — as a
// fixed number of whole passes on a harness pool as wide as the host,
// checks the outputs against recorded digests, and prints every metric
// by name with its unit. README.md in this directory defines each
// metric and says why each workload was chosen.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a separate traced run with
// --trace 1.
//
// Usage, from the repository root (run.sh builds the benchmark with the
// shipped PGO profile, then runs it):
//
//	bash perfbench/run.sh --workload grid --seed 1 --seconds 18 --trace 0
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
)

//go:embed golden.json
var goldenJSON []byte

// golden records, per workload, the digest of the first pass's report at
// the golden seed and that pass's item and failure counts.
type golden struct {
	Seed    int64                   `json:"seed"`
	Reports map[string]goldenReport `json:"reports"`
}

type goldenReport struct {
	SHA256    string `json:"sha256"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
}

const (
	// setupProbes is how many fresh processes set-up time is the median
	// of.
	setupProbes = 15
	// constructionSamples is how many machine constructions and image
	// clones a traced run times: enough for a p75 with ten samples beyond.
	constructionSamples = 40
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "grid, crash or mc")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 18, "measured seconds on the reference host; sets the pass count")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	probe := fs.Bool("setup-probe", false, "prepare the run, print ready and exit (set-up timing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b, err := benchByName(*name)
	if err != nil {
		return fail(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fail(fmt.Errorf("golden.json: %w", err))
	}
	want, ok := g.Reports[b.name]
	if !ok {
		return fail(fmt.Errorf("golden.json has no %s report", b.name))
	}

	seeds := passSeeds(b, g.Seed, *seed, passCount(b, *seconds))
	passes := make([]pass, len(seeds))
	for i, s := range seeds {
		passes[i] = b.prepare(paperSize, s)
	}
	if *probe {
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	width := runtime.NumCPU()

	var (
		setup  float64
		report []namedMetric
	)
	if *trace == 0 {
		// Fresh processes, before this one's heap grows.
		setup, err = probeSetup(args, setupProbes, stderr)
		if err != nil {
			return fail(err)
		}
	}
	untraced, err := runPasses(passes, width, nil)
	if err != nil {
		return fail(err)
	}
	problems := verify(untraced, seeds, g.Seed, &want)
	if *trace == 0 {
		report = endToEnd(untraced, newResult(untraced, problems), setup, peakRSSMB())
	} else {
		sp := newSpans()
		traced, shares, err := runTraced(passes, width, sp)
		if err != nil {
			return fail(err)
		}
		problems = append(problems, sameOutcomes(untraced, traced)...)
		if err := sampleConstruction(sp, constructionSamples); err != nil {
			return fail(err)
		}
		report = perLayer(b, untraced, traced, sp, shares)
	}

	for _, p := range problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	res := newResult(untraced, problems)
	for i, p := range untraced.perPass {
		fmt.Fprintf(stdout, "%-6s pass %d seed %d: %d items, %d failed, %.3f s\n",
			b.name, i, seeds[i], p[0], p[1], untraced.passWalls[i].Seconds())
	}
	for _, m := range report {
		res.Metrics[m.name] = m.metric
		fmt.Fprintf(stdout, "%-6s %-36s %16.6g %s\n", b.name, m.name, m.Value, m.Unit)
	}
	if res.Attempted > 0 {
		fmt.Fprintf(stdout, "%-6s %-36s %16.6g share (%d/%d)\n", b.name, "fail_share",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
	fmt.Fprintln(stdout, "stamp", stamp(width, seeds))
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// passCount is how many whole passes make a run of the given seconds on
// the reference host.
func passCount(b bench, seconds int) int {
	return max(1, int(math.Ceil(float64(seconds)/b.refPassSeconds)))
}

// passSeeds returns each pass's seed: the first pass runs at the golden
// seed, so every run checks the recorded digest; later passes run at
// seed, seed+1, … so that --seed varies the inputs. Unseeded workloads
// run every pass at the golden seed.
func passSeeds(b bench, goldenSeed, seed int64, n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = goldenSeed
		if i > 0 && b.seeded {
			seeds[i] = seed + int64(i) - 1
		}
	}
	return seeds
}

// phase is the outcome of running every pass once.
type phase struct {
	items, failed int
	wall          time.Duration
	perPass       [][2]int // items, failed
	passWalls     []time.Duration
	digests       []string // report digests, one per pass (untraced only)
	counts        map[string]float64
	allocBytes    uint64
	gcCycles      uint32
	cpu           time.Duration
}

// runPasses runs the passes back to back: through the program's batch
// entry points when sp is nil, as timed per-item calls otherwise. Only
// the calls themselves are inside the measured wall time.
func runPasses(passes []pass, width int, sp *spans) (phase, error) {
	ph := phase{counts: map[string]float64{}}
	var before, after runtime.MemStats
	runtime.GC() // start from a clean heap, whatever ran before
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	for _, p := range passes {
		start := time.Now()
		var r passResult
		var err error
		if sp == nil {
			r, err = p.run(width)
		} else {
			r, err = p.runTraced(width, sp)
		}
		wall := time.Since(start)
		ph.wall += wall
		ph.passWalls = append(ph.passWalls, wall)
		if err != nil {
			return ph, err
		}
		ph.items += r.items
		ph.failed += r.failed
		ph.perPass = append(ph.perPass, [2]int{r.items, r.failed})
		if r.report != nil {
			d, err := digest(r.report)
			if err != nil {
				return ph, err
			}
			ph.digests = append(ph.digests, d)
		}
		for k, v := range r.counts {
			ph.counts[k] += v
		}
	}
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.gcCycles = after.NumGC - before.NumGC
	return ph, nil
}

// runTraced runs the passes as timed per-item calls under a CPU profile
// and folds the profile into per-layer host shares.
func runTraced(passes []pass, width int, sp *spans) (phase, map[string]float64, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return phase{}, nil, err
	}
	ph, err := runPasses(passes, width, sp)
	pprof.StopCPUProfile()
	if err != nil {
		return ph, nil, err
	}
	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return ph, nil, err
	}
	return ph, foldStacks(stacks), nil
}

func digest(report any) (string, error) {
	data, err := json.Marshal(report)
	if err != nil {
		return "", fmt.Errorf("encoding report: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// verify checks the untraced passes: the first (golden-seed) pass must
// reproduce the recorded digest, items and failures when want is
// non-nil, and every later pass at the golden seed must reproduce the
// first pass's digest.
func verify(ph phase, seeds []int64, goldenSeed int64, want *goldenReport) []string {
	var problems []string
	if len(ph.digests) != len(seeds) {
		return []string{fmt.Sprintf("%d reports for %d passes", len(ph.digests), len(seeds))}
	}
	if want != nil {
		got := goldenReport{SHA256: ph.digests[0], Attempted: ph.perPass[0][0], Failed: ph.perPass[0][1]}
		if got != *want {
			problems = append(problems, fmt.Sprintf("seed %d report: got sha256 %s with %d/%d failed, recorded %s with %d/%d",
				goldenSeed, got.SHA256, got.Failed, got.Attempted, want.SHA256, want.Failed, want.Attempted))
		}
	}
	for i := 1; i < len(seeds); i++ {
		if seeds[i] == seeds[0] && ph.digests[i] != ph.digests[0] {
			problems = append(problems, fmt.Sprintf("pass %d at seed %d: report differs from pass 0", i, seeds[i]))
		}
	}
	return problems
}

// sameOutcomes checks that the traced per-item calls reproduced every
// pass's items and failures.
func sameOutcomes(untraced, traced phase) []string {
	var problems []string
	for i := range untraced.perPass {
		if i >= len(traced.perPass) || traced.perPass[i] != untraced.perPass[i] {
			problems = append(problems, fmt.Sprintf("pass %d: traced calls disagree with the batch run (%v vs %v)",
				i, traced.perPass, untraced.perPass))
			break
		}
	}
	return problems
}

// sampleConstruction times the fixed set-up each crash trial and each
// model-checker schedule pays: building a machine (and releasing its
// 64 MB images to the recycle pool), and cloning a full 64 MB image.
func sampleConstruction(sp *spans, n int) error {
	cfg := machine.DefaultConfig(machine.PMEMSpec, 4)
	for i := 0; i < n; i++ {
		start := time.Now()
		m, err := machine.New(cfg)
		if err != nil {
			return err
		}
		m.Release()
		sp.add("machine.new_ms", time.Since(start))
	}
	img := mem.NewImage(mem.DefaultBase, cfg.MemBytes)
	img.WriteU64(mem.DefaultBase+mem.Addr(cfg.MemBytes)-8, 1)
	for i := 0; i < n; i++ {
		start := time.Now()
		img.Clone().Release()
		sp.add("mem.clone_ms", time.Since(start))
	}
	img.Release()
	return nil
}

// probeSetup starts the benchmark n times as a fresh process that only
// prepares its run, and returns the median seconds from process start to
// the point where the first measured call would begin.
func probeSetup(args []string, n int, stderr io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, append([]string{"--setup-probe"}, args...)...)
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(start)
		werr := cmd.Wait()
		switch {
		case werr != nil:
			return 0, fmt.Errorf("setup probe: %w", werr)
		case rerr != nil || line != "ready\n":
			return 0, fmt.Errorf("setup probe: unexpected output %q (%v)", line, rerr)
		}
		xs = append(xs, elapsed.Seconds())
	}
	return median(xs), nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name string
	metric
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newResult counts the run's items. A failed check fails every item:
// outputs that moved make the whole run suspect.
func newResult(ph phase, problems []string) result {
	res := result{Correct: len(problems) == 0, Attempted: ph.items, Failed: ph.failed,
		Metrics: map[string]metric{}}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	return res
}

// endToEnd reports the untraced run; res carries its item counts.
func endToEnd(ph phase, res result, setup, rssMB float64) []namedMetric {
	return []namedMetric{
		{"items_per_s", metric{float64(ph.items) / ph.wall.Seconds(), "1/s"}},
		{"setup_s", metric{setup, "s"}},
		{"peak_rss_mb", metric{rssMB, "MB"}},
		{"ok_share", metric{ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)), "share"}},
	}
}

// ratio is num/den, or 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func perLayer(b bench, untraced, traced phase, sp *spans, shares map[string]float64) []namedMetric {
	var out []namedMetric
	add := func(name string, v float64, unit string) {
		out = append(out, namedMetric{name, metric{v, unit}})
	}
	for _, l := range layers {
		add(l+".host_share", shares[l], "share")
	}
	for _, s := range spanNames {
		p50, tail, pct, n := sp.summary(s)
		add(s+"_p50", p50, "ms")
		add(s+"_tail", tail, "ms")
		add(s+"_tail_pct", pct, "%")
		add(s+"_n", float64(n), "count")
	}
	c := untraced.counts
	for _, n := range countNames {
		add(n.metric, c[n.metric], "count")
	}
	for _, n := range mcCountNames {
		add(n, c[n], "count")
	}
	add("harness.trials", c["harness.trials"], "count")
	simOps := c["machine.loads"] + c["machine.stores"]
	add("fatomic.abort_ratio", ratio(c["fatomic.aborts"], c["fatomic.fases"]+c["fatomic.aborts"]), "ratio")
	add("mc.reduction_ratio", ratio(c["mc.schedules"], c["mc.bound"]), "ratio")
	add("mc.unique_ratio", ratio(c["mc.unique_images"], c["mc.images"]), "ratio")
	add("harness.sim_ops_per_trial", ratio(simOps, c["harness.trials"]), "ops/trial")
	hostNS := 0.0
	if b.name == "grid" {
		hostNS = ratio(float64(untraced.wall.Nanoseconds()), simOps)
	}
	add("machine.host_ns_per_sim_op", hostNS, "ns/op")
	items := float64(untraced.items)
	add("runtime.alloc_mb_per_item", ratio(float64(untraced.allocBytes)/(1<<20), items), "MB/item")
	add("runtime.gc_cycles", float64(untraced.gcCycles), "count")
	add("runtime.cpu_s_per_item", ratio(untraced.cpu.Seconds(), items), "s/item")
	add("trace_overhead", traced.wall.Seconds()/untraced.wall.Seconds()-1, "ratio")
	return out
}

// stamp identifies the build and host a result came from.
func stamp(width int, seeds []int64) string {
	s := map[string]string{
		"go":           runtime.Version(),
		"vcs_revision": "unknown",
		"vcs_modified": "unknown",
		"pgo":          "none",
		"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":        strconv.Itoa(runtime.NumCPU()),
		"pool_width":   strconv.Itoa(width),
		"seeds":        fmt.Sprint(seeds),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s["vcs_revision"] = kv.Value
			case "vcs.modified":
				s["vcs_modified"] = kv.Value
			case "-pgo":
				s["pgo"] = filepath.Base(kv.Value)
			}
		}
	}
	data, _ := json.Marshal(s) // a map of strings always encodes
	return string(data)
}
