// Package workload implements the benchmark suite of Table 4 against the
// simulated machine: Array Swaps, Concurrent Queue, Hashmap, RB-Tree,
// TATP update-location, TPCC new-order, Vacation and a Memcached-style
// KV store, plus the §8.4 synthetic load-misspeculation generator.
//
// Each workload provides failure-atomicity via the undo-logging runtime
// (internal/fatomic), runs its multithreaded kernel after a
// single-threaded setup phase (only the kernel is measured, as in §8.1),
// and carries a Verify method that checks its structural invariants —
// usable after a normal run (against the coherent image) and after
// crash-recovery (against the recovered persisted image).
package workload

import (
	"fmt"
	"math/rand"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
)

// Params configures one run.
type Params struct {
	// Threads is the number of worker threads (= cores).
	Threads int
	// Ops is the number of FASEs/transactions per thread (the paper
	// runs 100K; the harness scales this down — documented in
	// EXPERIMENTS.md — because the shapes stabilize far earlier).
	Ops int
	// DataSize is the payload size of one item (64 B for the
	// microbenchmarks, 1024 B for Memcached, per §8.1).
	DataSize int
	// Scale sizes the workload's data structures (elements, keys,
	// subscribers…). Zero selects the workload default.
	Scale int
	// Seed drives all randomness (runs are deterministic per seed).
	Seed int64
}

// DefaultParams returns the paper-style configuration at a reduced op
// count suitable for simulation in tests and benchmarks.
func DefaultParams(threads int) Params {
	return Params{Threads: threads, Ops: 200, DataSize: 64, Seed: 1}
}

// Env hands a workload its machine-level context.
type Env struct {
	M    *machine.Machine
	RT   *fatomic.Runtime
	Heap *mem.Heap
	P    Params
}

// Rand returns the deterministic RNG for one worker thread.
func (e *Env) Rand(tid int) *rand.Rand {
	return rand.New(rand.NewSource(e.P.Seed*1_000_003 + int64(tid)))
}

// Workload is one Table 4 benchmark.
type Workload interface {
	// Name is the short identifier used by the harness and CLI.
	Name() string
	// Description matches the Table 4 wording.
	Description() string
	// MemBytes returns the PM region size this workload needs under p.
	MemBytes(p Params) uint64
	// Setup initializes the persistent structures (single-threaded, not
	// measured). It runs on worker thread 0.
	Setup(e *Env, t *machine.Thread)
	// Run executes the measured kernel for one worker thread: e.P.Ops
	// failure-atomic operations.
	Run(e *Env, t *machine.Thread, tid int)
	// Verify checks the workload's invariants against an image — the
	// coherent image after a normal run, or the recovered persisted
	// image after a crash. completedOps is the number of FASEs known to
	// have committed (0 means unknown, e.g. after a crash: Verify then
	// checks only structural invariants).
	Verify(img *mem.Image, completedOps uint64) error
}

// LogFree is implemented by a workload whose threads never open a
// failure-atomic section, so they never append to their undo logs: the
// litmus programs, which order their stores with the design's barriers
// alone. The harness skips the log warm-up (fatomic.Runtime.WarmLog) for
// such a workload. The warm-up's 1,024 stores per thread would only fill
// the caches and the persisted image with log lines the run never
// touches again.
type LogFree interface {
	// LogFree marks the workload; the harness only tests for it.
	LogFree()
}

// factories builds fresh instances (workloads carry per-run state such
// as root addresses).
var factories = []func() Workload{
	func() Workload { return NewArraySwaps() },
	func() Workload { return NewQueue() },
	func() Workload { return NewHashmap() },
	func() Workload { return NewRBTree() },
	func() Workload { return NewTATP() },
	func() Workload { return NewTPCC() },
	func() Workload { return NewVacation() },
	func() Workload { return NewMemcached() },
}

// All returns fresh instances of the Table 4 benchmarks in paper order.
func All() []Workload {
	out := make([]Workload, len(factories))
	for i, f := range factories {
		out[i] = f()
	}
	return out
}

// Names lists the benchmark names in paper order.
func Names() []string {
	var out []string
	for _, w := range All() {
		out = append(out, w.Name())
	}
	return out
}

// ByName returns a fresh instance of the named workload (including the
// synthetic generator, which is not part of All).
func ByName(name string) (Workload, error) {
	for _, f := range factories {
		w := f()
		if w.Name() == name {
			return w, nil
		}
	}
	switch name {
	case "synthetic":
		return NewSynthetic(), nil
	case "tpcc-mix":
		return NewTPCCMix(), nil
	case "tatp-mix":
		return NewTATPMix(), nil
	case "naivelog":
		return NewNaiveLog(), nil
	case "naivescan":
		return NewNaiveScan(), nil
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// setupFlush pushes a region written during the single-threaded setup
// phase toward the persistence domain. Setup stores bypass the FASE
// path (they need no undo logging), so they must be flushed and
// ordered explicitly: the measured kernel starts from durable initial
// state, and a simulated crash in the first transactions must not
// expose torn setup data.
func setupFlush(e *Env, t *machine.Thread, a mem.Addr, n int) {
	e.RT.Model().Flush(t, a, n)
}

// setupCommit makes everything setupFlush pushed out durable; every
// Setup ends with it.
func setupCommit(e *Env, t *machine.Thread) {
	e.RT.Model().DurableBarrier(t)
}

// fillPattern writes a recognizable payload derived from tag into p.
func fillPattern(p []byte, tag uint64) {
	for i := range p {
		p[i] = byte(tag>>(8*(uint(i)%8))) ^ byte(i)
	}
}

// checkPattern verifies a payload written by fillPattern.
func checkPattern(p []byte, tag uint64) bool {
	for i := range p {
		if p[i] != byte(tag>>(8*(uint(i)%8)))^byte(i) {
			return false
		}
	}
	return true
}
