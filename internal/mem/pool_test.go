package mem_test

import (
	"runtime"
	"sync"
	"testing"

	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/workload"
)

// holdingWorkload is a workload whose first Verify, which a crash trial
// runs on its scratch copy of PM while the machine's two images are
// alive, waits until every trial of the round holds its images.
type holdingWorkload struct {
	workload.Workload
	held    *sync.WaitGroup
	arrive  *sync.Once
	reached *bool
}

func (h holdingWorkload) Verify(img *mem.Image, completedOps uint64) error {
	h.arrive.Do(func() {
		*h.reached = true
		h.held.Done()
	})
	h.held.Wait()
	return h.Workload.Verify(img, completedOps)
}

// TestImagePoolHoldsCrashWorkers: a crash trial holds three image
// arrays at once, its machine's PM and Arch and its scratch copy of PM.
// After one round of GOMAXPROCS concurrent trials, each holding all
// three at the same instant, the pool keeps every array, so a second
// round frees none. (The package's other tests release every large
// image or wait for its cleanup, so no stray cleanup adds to the count.)
func TestImagePoolHoldsCrashWorkers(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	// A point past the run's end: the trial still captures it on its
	// scratch copy and verifies that copy, whenever setup ends.
	spec := harness.TrialSpec{Design: machine.PMEMSpec, Workload: "queue",
		Params: workload.Params{Threads: 2, Ops: 40, DataSize: 64, Seed: 7},
		Point:  harness.CrashPoint{AtNS: 1_000_000_000, Label: "after-run"}}
	round := func() {
		var done, held sync.WaitGroup
		held.Add(workers)
		for i := 0; i < workers; i++ {
			done.Add(1)
			go func() {
				defer done.Done()
				queue, err := workload.ByName(spec.Workload)
				if err != nil {
					t.Error(err)
					return
				}
				var arrive sync.Once
				reached := false
				// A trial that fails before its Verify must not hold the
				// others at the barrier.
				defer arrive.Do(held.Done)
				out, err := harness.RunTrialWith(spec, holdingWorkload{queue, &held, &arrive, &reached})
				switch {
				case err != nil:
					t.Error(err)
				case out.VerifyErr != nil:
					t.Error(out.VerifyErr)
				case !reached:
					t.Error("the trial never verified its scratch copy, so it never held three arrays")
				}
			}()
		}
		done.Wait()
	}
	round()
	from := mem.ArraysFreed()
	round()
	if n := mem.ArraysFreed() - from; n != 0 {
		t.Errorf("a second round of %d crash trials freed %d image arrays, want 0", workers, n)
	}
}
