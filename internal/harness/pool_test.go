package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pmemspec/internal/machine"
	"pmemspec/internal/workload"
)

// TestRunAllIndexedResults: results come back keyed by job index, not
// completion order, at any worker count.
func TestRunAllIndexedResults(t *testing.T) {
	const n = 37
	jobs := make([]Job[Result], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[Result]{
			Label: fmt.Sprintf("job%d", i),
			Run:   func() (Result, error) { return Result{Committed: uint64(i)}, nil },
		}
	}
	for _, workers := range []int{1, 2, 8, 64} {
		out := RunAll(jobs, workers, nil)
		if len(out) != n {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i := range out {
			if out[i].Err != nil || out[i].Result.Committed != uint64(i) {
				t.Errorf("workers=%d: result[%d] = %+v", workers, i, out[i])
			}
		}
	}
}

// TestRunAllPanicCapture: a panicking job becomes that job's error; the
// remaining jobs still run.
func TestRunAllPanicCapture(t *testing.T) {
	var ran atomic.Int64
	jobs := []Job[Result]{
		{Label: "ok1", Run: func() (Result, error) { ran.Add(1); return Result{}, nil }},
		{Label: "boom", Run: func() (Result, error) { panic("exploded") }},
		{Label: "ok2", Run: func() (Result, error) { ran.Add(1); return Result{}, nil }},
	}
	out := RunAll(jobs, 4, nil)
	if out[0].Err != nil || out[2].Err != nil {
		t.Errorf("healthy jobs failed: %v / %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "exploded") || !strings.Contains(out[1].Err.Error(), "boom") {
		t.Errorf("panic not captured with label: %v", out[1].Err)
	}
	if ran.Load() != 2 {
		t.Errorf("ran %d healthy jobs, want 2", ran.Load())
	}
}

// TestRunAllProgressSerialized: every label is reported exactly once even
// under concurrency (the callback itself needs no locking).
func TestRunAllProgressSerialized(t *testing.T) {
	const n = 64
	jobs := make([]Job[Result], n)
	for i := range jobs {
		jobs[i] = Job[Result]{Label: fmt.Sprintf("j%d", i), Run: func() (Result, error) { return Result{}, nil }}
	}
	seen := map[string]int{} // mutated without locking: RunAll serializes
	RunAll(jobs, 8, func(s string) { seen[s]++ })
	if len(seen) != n {
		t.Fatalf("saw %d labels, want %d", len(seen), n)
	}
	for l, c := range seen {
		if c != 1 {
			t.Errorf("label %q reported %d times", l, c)
		}
	}
}

// TestFig9ParallelDeterminism is the determinism regression: the Fig9
// grid run sequentially and with 8 workers must produce identical rows —
// same seed ⇒ same numbers regardless of worker count.
func TestFig9ParallelDeterminism(t *testing.T) {
	seq := &Runner{Parallel: 1}
	par := &Runner{Parallel: 8}
	a, err := seq.Fig9(2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Fig9(2, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("parallel rows differ from sequential:\nseq: %+v\npar: %+v", a, b)
	}
}

// TestRunnerExperimentsParallel smoke-runs every pooled driver at 8
// workers (race-detector coverage for the whole grid machinery).
func TestRunnerExperimentsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	r := &Runner{Parallel: 8}
	if _, err := r.Fig10([]int{2, 4}, 20, 1); err != nil {
		t.Errorf("Fig10: %v", err)
	}
	if _, err := r.Fig11(2, 25, 1); err != nil {
		t.Errorf("Fig11: %v", err)
	}
	if _, err := r.Fig12(2, 20, 1); err != nil {
		t.Errorf("Fig12: %v", err)
	}
	if _, err := r.MisspecStudy(2, 20, 1); err != nil {
		t.Errorf("MisspecStudy: %v", err)
	}
	if _, err := r.DetectionAblation(2, 20, 1); err != nil {
		t.Errorf("DetectionAblation: %v", err)
	}
}

// TestFig10ParallelDeterminism: the multi-panel driver is order-stable
// too (it shares the pool with every panel in one batch).
func TestFig10ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	a, err := (&Runner{Parallel: 1}).Fig10([]int{2, 4}, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Runner{Parallel: 8}).Fig10([]int{2, 4}, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("Fig10 parallel panels differ from sequential")
	}
}

// TestRunAllFirstErrorDeterministic: the reported error is the lowest-
// indexed failure, independent of completion order.
func TestRunAllFirstErrorDeterministic(t *testing.T) {
	jobs := make([]Job[Result], 16)
	for i := range jobs {
		i := i
		jobs[i] = Job[Result]{
			Label: fmt.Sprintf("j%d", i),
			Run: func() (Result, error) {
				if i%3 == 2 { // jobs 2, 5, 8, 11, 14 fail
					return Result{}, fmt.Errorf("fail-%d", i)
				}
				return Result{}, nil
			},
		}
	}
	for _, workers := range []int{1, 8} {
		err := firstError(RunAll(jobs, workers, nil))
		if err == nil || err.Error() != "fail-2" {
			t.Errorf("workers=%d: firstError = %v, want fail-2", workers, err)
		}
	}
}

// TestConcurrentRunsShareNothing: many simultaneous Run calls on the
// same (design, workload, seed) all agree with a sequential reference —
// the cross-run state audit the pool relies on.
func TestConcurrentRunsShareNothing(t *testing.T) {
	ref, err := func() (Result, error) {
		w, _ := workload.ByName("queue")
		return Run(machine.PMEMSpec, w, params("queue", 2, 25, 3))
	}()
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job[Result], 8)
	for i := range jobs {
		jobs[i] = (&Runner{}).benchJob("clone", machine.PMEMSpec, "queue", params("queue", 2, 25, 3))
	}
	for _, out := range RunAll(jobs, len(jobs), nil) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if out.Result.KernelTime != ref.KernelTime || out.Result.Committed != ref.Committed {
			t.Errorf("concurrent run diverged: %v/%d vs %v/%d",
				out.Result.KernelTime, out.Result.Committed, ref.KernelTime, ref.Committed)
		}
	}
}

// TestPoolRunsSubmittedJobs: the long-lived pool executes every
// submitted job exactly once with panics captured, and Close drains.
func TestPoolRunsSubmittedJobs(t *testing.T) {
	p := NewPool[int](4)
	const n = 100
	results := make([]JobResult[int], n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		job := Job[int]{Label: fmt.Sprintf("job%d", i), Run: func() (int, error) {
			if i == 13 {
				panic("boom")
			}
			return i * i, nil
		}}
		go p.Submit(job, func(r JobResult[int]) {
			results[i] = r
			wg.Done()
		})
	}
	wg.Wait()
	p.Close()
	for i, r := range results {
		if i == 13 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "panicked") {
				t.Fatalf("job 13: panic not captured: %v", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Result != i*i {
			t.Fatalf("job %d = (%d, %v), want (%d, nil)", i, r.Result, r.Err, i*i)
		}
	}
}

// TestRunWithCancel: a run whose Cancel callback fires stops with
// machine.ErrCanceled, and an armed-but-never-firing Cancel leaves the
// result byte-identical to a run without one. The poll is a kernel
// watch: as a kernel event it made a thread crossing a poll instant
// yield, which reorders threads tied at that clock — at a 1000-cycle
// period that moved DPO/tpcc's kernel time.
func TestRunWithCancel(t *testing.T) {
	fastPoll := func(c *machine.Config) { c.CancelPollCycles = 1000 }
	cases := []struct {
		name     string
		design   machine.Design
		workload string
		p        workload.Params
		opts     []Option
	}{
		{"PMEM-Spec/queue", machine.PMEMSpec, "queue", workload.DefaultParams(2), nil},
		{"DPO/tpcc/poll-1000", machine.DPO, "tpcc", params("tpcc", 4, 100, 1), []Option{fastPoll}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(opts ...Option) (Result, error) {
				w, err := workload.ByName(tc.workload)
				if err != nil {
					t.Fatal(err)
				}
				return Run(tc.design, w, tc.p, append(slices.Clone(tc.opts), opts...)...)
			}
			if _, err := run(WithCancel(func() bool { return true })); !errors.Is(err, machine.ErrCanceled) {
				t.Fatalf("Run with firing cancel = %v, want ErrCanceled", err)
			}
			plain, err := run()
			if err != nil {
				t.Fatal(err)
			}
			armed, err := run(WithCancel(func() bool { return false }))
			if err != nil {
				t.Fatal(err)
			}
			if plain.Committed != armed.Committed || plain.KernelTime != armed.KernelTime {
				t.Fatalf("armed cancel perturbed the run: committed %d vs %d, kernel time %d vs %d",
					plain.Committed, armed.Committed, plain.KernelTime, armed.KernelTime)
			}
			pj, _ := json.Marshal(plain.Metrics)
			aj, _ := json.Marshal(armed.Metrics)
			if !bytes.Equal(pj, aj) {
				t.Fatal("armed cancel perturbed the metrics snapshot")
			}
		})
	}
}
