package mc

import (
	"fmt"
	"slices"

	"pmemspec/internal/litmus"
	"pmemspec/internal/machine"
	"pmemspec/internal/sim"
)

// replayer executes one schedule script: it parks every worker thread
// at each op boundary (via litmus.Program.Hook) and releases them one
// op at a time in script order (via sim.Kernel.SetScheduler). Harness
// machinery outside the pattern body — setup, the start barrier, the
// join rendezvous and the verification tail — runs under the default
// (clock, id) policy; only pattern ops are choice points.
type replayer struct {
	prog   *litmus.Program
	script []int
	next   int // next script index to release

	m    *machine.Machine
	tids map[*sim.Thread]int // sim thread -> worker tid, learned at first park
	sims []*sim.Thread       // worker tid -> sim thread

	parked   []bool // parked at an op boundary, awaiting release
	done     []bool // stream fully interpreted (final hook fired)
	released int    // tid currently executing its released op, or -1

	// chain is the persisted-image chain: the litmus variable vector
	// after each distinct persist completion. Every crash instant of
	// this run exposes exactly one chain entry.
	chain [][]uint64

	err error
}

func newReplayer(prog *litmus.Program, script []int, nt int) *replayer {
	return &replayer{
		prog:     prog,
		script:   script,
		tids:     make(map[*sim.Thread]int, nt),
		sims:     make([]*sim.Thread, nt),
		parked:   make([]bool, nt),
		done:     make([]bool, nt),
		released: -1,
	}
}

// fail records the first replay protocol violation; the run is then
// drained under the default policy so the kernel still terminates.
func (r *replayer) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// install wires the replayer into a freshly constructed machine
// (harness.TrialSpec.Instrument).
func (r *replayer) install(m *machine.Machine) {
	r.m = m
	m.SetPersistObserver(r.observe)
	m.Kernel().SetScheduler(r.pick)
}

// observe appends the current persisted litmus-variable vector to the
// chain when it changed. It fires on every persist completion; before
// Setup has allocated the variables (base address still zero) there is
// nothing meaningful to read.
func (r *replayer) observe() {
	if r.prog.VarAddr(litmus.Data) == 0 {
		return
	}
	vec := r.prog.Vars(r.m.Space().PM)
	if len(r.chain) > 0 && slices.Equal(r.chain[len(r.chain)-1], vec) {
		return
	}
	r.chain = append(r.chain, vec)
}

// hook is litmus.Program.Hook: each worker parks here before every
// pattern op, and once more (opIdx == len) when its stream is done.
func (r *replayer) hook(t *machine.Thread, tid, opIdx int) {
	st := t.Sim()
	if r.sims[tid] == nil {
		r.sims[tid] = st
		r.tids[st] = tid
	}
	if r.released == tid {
		r.released = -1
	}
	if opIdx == len(r.prog.P.ThreadOps(tid)) {
		r.done[tid] = true
		return // fall through to the join rendezvous
	}
	r.parked[tid] = true
	st.Yield() // stay ready; the scheduler decides when this op issues
}

// pick is the controlled scheduler (sim.SchedulerFunc).
func (r *replayer) pick(ready []*sim.Thread) *sim.Thread {
	// A released op runs to completion before the next choice point: the
	// op may advance through several yields and event waits, and its
	// persist side effects belong to its position in the schedule.
	if rel := r.released; rel >= 0 && !r.parked[rel] && !r.done[rel] {
		for _, t := range ready {
			if t == r.sims[rel] {
				return t
			}
		}
		if r.m.Kernel().EventsPending() {
			return nil // let the op's pending hardware events fire
		}
		// Blocked with no events: only another thread can unblock it.
	}
	// Harness machinery (threads that never parked, or finished
	// streams running the join/tail) runs eagerly under the default
	// (clock, id) policy.
	var free *sim.Thread
	for _, t := range ready {
		tid, known := r.tids[t]
		if known && r.parked[tid] {
			continue
		}
		if free == nil || t.Clock() < free.Clock() ||
			(t.Clock() == free.Clock() && t.ID() < free.ID()) {
			free = t
		}
	}
	if free != nil {
		return free
	}
	// Every ready thread is parked at an op boundary: a choice point.
	if r.next >= len(r.script) {
		r.fail("mc: script exhausted with threads still parked")
		return ready[0] // drain arbitrarily; the error fails the cell
	}
	tid := r.script[r.next]
	if tid < 0 || tid >= len(r.parked) || !r.parked[tid] {
		r.fail("mc: script step %d releases thread %d, which is not parked", r.next, tid)
		return ready[0]
	}
	r.next++
	r.parked[tid] = false
	r.released = tid
	for _, t := range ready {
		if t == r.sims[tid] {
			return t
		}
	}
	r.fail("mc: released thread %d is parked but not ready", tid)
	return ready[0]
}

// finish validates that the script was fully consumed and returns the
// captured chain.
func (r *replayer) finish() ([][]uint64, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.next != len(r.script) {
		return nil, fmt.Errorf("mc: run ended with %d of %d script steps unconsumed",
			len(r.script)-r.next, len(r.script))
	}
	return r.chain, nil
}
