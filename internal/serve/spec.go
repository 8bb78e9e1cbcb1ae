// Grid specs and cells: the unit of work pmemspec-serve accepts is a
// (designs × workloads × configs × seeds) grid, and the unit it
// simulates and caches is one cell of that grid. A cell's identity is
// content-addressed — the SHA-256 of its canonical JSON including the
// code-version stamp — so two clients asking for the same simulation
// share one result, and a rebuilt simulator never serves stale cells.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
	"pmemspec/internal/metrics"
	"pmemspec/internal/sim"
	"pmemspec/internal/workload"
)

// GridSpec is the POST /v1/jobs request body: the cross product of
// designs × workloads × configs × seeds, one simulation cell each.
type GridSpec struct {
	// Designs are machine designs by name (IntelX86, DPO, HOPS,
	// PMEM-Spec, StrandWeaver — as printed by Design.String).
	Designs []string `json:"designs"`
	// Workloads are Table 4 benchmark names (workload.Names).
	Workloads []string `json:"workloads"`
	// Seeds are the workload RNG seeds swept (default: [1]).
	Seeds []int64 `json:"seeds,omitempty"`
	// Configs are the configuration overrides swept (default: one
	// all-defaults config).
	Configs []CellConfig `json:"configs,omitempty"`
	// TimeoutMS bounds the whole job's wall-clock; 0 uses the server
	// default. In-flight cells are stopped via the kernel's
	// cancellation watcher, not abandoned.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// CellConfig is the machine/workload override surface exposed over
// HTTP — the same knobs the experiment drivers sweep. Zero values mean
// "default".
type CellConfig struct {
	// Threads is the worker-thread (= core) count (default 4).
	Threads int `json:"threads,omitempty"`
	// Ops is the failure-atomic operations per thread (default 100).
	Ops int `json:"ops,omitempty"`
	// DataSize is the per-item payload in bytes (default: 64, with the
	// paper's 1024 for memcached).
	DataSize int `json:"data_size,omitempty"`
	// Scale sizes the workload's structures (0: workload default).
	Scale int `json:"scale,omitempty"`
	// SpecBufEntries overrides the speculation-buffer capacity (Fig 11).
	SpecBufEntries int `json:"spec_buf_entries,omitempty"`
	// PathLatencyNS overrides the persist-path latency (Fig 12).
	PathLatencyNS int64 `json:"path_latency_ns,omitempty"`
	// Timeline records the run's event timeline; the cell result then
	// carries a Chrome-trace download.
	Timeline bool `json:"timeline,omitempty"`
}

// normalize fills the defaults in, so two specs that mean the same cell
// hash to the same key.
func (c CellConfig) normalize(workloadName string) CellConfig {
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Ops <= 0 {
		c.Ops = 100
	}
	if c.DataSize <= 0 {
		c.DataSize = 64
		if workloadName == "memcached" {
			c.DataSize = 1024
		}
	}
	return c
}

// Cell is one (design, workload, config, seed) simulation.
type Cell struct {
	Design   string     `json:"design"`
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Config   CellConfig `json:"config"`
}

// maxCellsPerJob bounds one POST's fan-out so a single request cannot
// enqueue an unbounded grid.
const maxCellsPerJob = 4096

// designByName resolves a design name as printed by Design.String.
func designByName(name string) (machine.Design, error) {
	for _, d := range machine.AllDesigns {
		if d.String() == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown design %q", name)
}

// Cells validates the spec and enumerates its grid in deterministic
// design-major order (designs × workloads × configs × seeds).
func (s GridSpec) Cells() ([]Cell, error) {
	if len(s.Designs) == 0 {
		return nil, fmt.Errorf("spec: no designs")
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("spec: no workloads")
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	configs := s.Configs
	if len(configs) == 0 {
		configs = []CellConfig{{}}
	}
	n := len(s.Designs) * len(s.Workloads) * len(configs) * len(seeds)
	if n > maxCellsPerJob {
		return nil, fmt.Errorf("spec: %d cells exceeds the per-job cap %d", n, maxCellsPerJob)
	}
	for _, d := range s.Designs {
		if _, err := designByName(d); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	}
	for _, w := range s.Workloads {
		if _, err := workload.ByName(w); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
	}
	cells := make([]Cell, 0, n)
	for _, d := range s.Designs {
		for _, w := range s.Workloads {
			for _, c := range configs {
				for _, seed := range seeds {
					cells = append(cells, Cell{Design: d, Workload: w, Seed: seed, Config: c.normalize(w)})
				}
			}
		}
	}
	return cells, nil
}

// codeVersion is the stamp that makes the result cache sound across
// rebuilds: the hex SHA-256 of the running executable, computed on
// first use. Two binaries built from different code never share cache
// entries, including under `go run` and across edits to a dirty tree,
// which a VCS revision stamp cannot tell apart.
var codeVersion = sync.OnceValues(func() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("serve: code stamp: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", fmt.Errorf("serve: code stamp: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("serve: code stamp: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
})

// Key returns the cell's content address: the hex SHA-256 of its
// canonical JSON plus the code-version stamp. The cell must already be
// normalized (Cells does this), so specs with elided defaults and specs
// with explicit defaults address the same entry.
func (c Cell) Key(version string) string {
	payload, err := json.Marshal(struct {
		Cell
		Version string `json:"version"`
	}{c, version})
	if err != nil {
		panic(fmt.Sprintf("serve: cell key marshal: %v", err)) // struct of scalars: cannot fail
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// CellResult is the cached outcome of one cell, served verbatim by
// GET /v1/results/{key}. Encoding is deterministic: the simulator's
// outputs are byte-identical per (cell, code version), and the encoder
// walks fixed struct order with stable-sorted metrics.
type CellResult struct {
	Key        string           `json:"key"`
	Version    string           `json:"version"`
	Cell       Cell             `json:"cell"`
	Committed  uint64           `json:"committed"`
	KernelTime sim.Time         `json:"kernel_cycles"`
	Throughput float64          `json:"throughput"`
	Metrics    metrics.Snapshot `json:"metrics"`
	// Trace is the Chrome-trace rendering of the run's timeline, present
	// only when the cell's config asked for one.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// runCell simulates one cell on the calling goroutine and stamps the
// result with version. cancel, when non-nil, is polled by the kernel's
// cancellation watcher.
func runCell(c Cell, version string, cancel func() bool) (CellResult, error) {
	d, err := designByName(c.Design)
	if err != nil {
		return CellResult{}, err
	}
	w, err := workload.ByName(c.Workload)
	if err != nil {
		return CellResult{}, err
	}
	p := workload.Params{
		Threads:  c.Config.Threads,
		Ops:      c.Config.Ops,
		DataSize: c.Config.DataSize,
		Scale:    c.Config.Scale,
		Seed:     c.Seed,
	}
	var opts []harness.Option
	if c.Config.SpecBufEntries > 0 {
		opts = append(opts, harness.WithSpecBufEntries(c.Config.SpecBufEntries))
	}
	if c.Config.PathLatencyNS > 0 {
		opts = append(opts, harness.WithPathLatencyNS(c.Config.PathLatencyNS))
	}
	if c.Config.Timeline {
		opts = append(opts, harness.WithTimeline())
	}
	if cancel != nil {
		opts = append(opts, harness.WithCancel(cancel))
	}
	res, err := harness.Run(d, w, p, opts...)
	if err != nil {
		return CellResult{}, err
	}
	out := CellResult{
		Key:        c.Key(version),
		Version:    version,
		Cell:       c,
		Committed:  res.Committed,
		KernelTime: res.KernelTime,
		Throughput: res.Throughput,
		Metrics:    res.Metrics,
	}
	if res.Timeline != nil {
		var buf bytes.Buffer
		if err := metrics.WriteTrace(&buf, []metrics.NamedTimeline{
			{Name: c.Design + "/" + c.Workload, TL: res.Timeline},
		}); err != nil {
			return CellResult{}, err
		}
		out.Trace = json.RawMessage(buf.Bytes())
	}
	return out, nil
}
