package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// The experiment drivers enumerate their (workload × design × config)
// grids as independent Jobs and dispatch them through RunAll, so an
// `-experiment all` sweep uses every host core instead of one. Each job
// builds its own machine.Machine, OS layer, runtime and workload — runs
// share no simulation state — and results are keyed by job index, never
// by completion order, so the output is byte-identical at any worker
// count. The pool is generic over the job's result type: benchmark jobs
// produce Result, crash-campaign jobs one cell's outcomes.

// Job is one independent experiment run producing a T.
type Job[T any] struct {
	// Label identifies the run in progress output and panic reports.
	Label string
	// Run executes the job. It must not touch state shared with other
	// jobs; it runs on an arbitrary host goroutine.
	Run func() (T, error)
}

// JobResult is the outcome of one Job: its Result, or the error (a
// failure, or a captured panic with stack) that ended it.
type JobResult[T any] struct {
	Result T
	Err    error
}

// RunAll executes jobs across `workers` host goroutines and returns their
// outcomes indexed exactly like jobs. workers ≤ 0 selects GOMAXPROCS.
// progress, if non-nil, is invoked with each job's label as it starts;
// calls are serialized but their order depends on scheduling (results do
// not). A panic inside a job is captured as that job's error instead of
// tearing down the whole sweep.
func RunAll[T any](jobs []Job[T], workers int, progress func(string)) []JobResult[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]JobResult[T], len(jobs))
	if workers <= 1 {
		for i := range jobs {
			if progress != nil {
				progress(jobs[i].Label)
			}
			out[i] = runJob(&jobs[i])
		}
		return out
	}
	var mu sync.Mutex
	report := func(s string) {
		if progress == nil {
			return
		}
		mu.Lock()
		progress(s)
		mu.Unlock()
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				report(jobs[i].Label)
				out[i] = runJob(&jobs[i])
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// runJob runs one job, converting a panic into its error.
func runJob[T any](j *Job[T]) (jr JobResult[T]) {
	defer func() {
		if r := recover(); r != nil {
			jr.Err = fmt.Errorf("harness: job %q panicked: %v\n%s", j.Label, r, debug.Stack())
		}
	}()
	jr.Result, jr.Err = j.Run()
	return jr
}

// firstError returns the error of the lowest-indexed failed job, so the
// reported failure is deterministic regardless of completion order.
func firstError[T any](rs []JobResult[T]) error {
	for i := range rs {
		if rs[i].Err != nil {
			return rs[i].Err
		}
	}
	return nil
}

// Pool is the long-lived counterpart to RunAll for services that submit
// jobs continuously instead of in one batch: a fixed set of host workers
// pulling from an unbuffered channel. Submission blocks until a worker
// is free, which is the pool's backpressure signal — callers that need a
// bounded queue (the serve layer) put their own admission control in
// front. Jobs run through the same panic-capturing runJob as RunAll.
type Pool[T any] struct {
	tasks chan poolTask[T]
	wg    sync.WaitGroup
}

type poolTask[T any] struct {
	job Job[T]
	// done receives the job's outcome on the worker goroutine.
	done func(JobResult[T])
}

// NewPool starts a pool of `workers` host goroutines (≤ 0: GOMAXPROCS).
func NewPool[T any](workers int) *Pool[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool[T]{tasks: make(chan poolTask[T])}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t.done(runJob(&t.job))
			}
		}()
	}
	return p
}

// Submit hands one job to the pool, blocking until a worker accepts it.
// done is invoked on the worker goroutine with the job's outcome (panics
// captured as errors, like RunAll); it must be safe to call from any
// goroutine. Submit must not be called after Close.
func (p *Pool[T]) Submit(job Job[T], done func(JobResult[T])) {
	p.tasks <- poolTask[T]{job: job, done: done}
}

// Close stops the workers after the already-accepted jobs finish and
// waits for them to exit. The pool must not be used afterwards.
func (p *Pool[T]) Close() {
	close(p.tasks)
	p.wg.Wait()
}
