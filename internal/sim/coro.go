package sim

import (
	"fmt"
	"iter"
)

// EffectKind classifies what a coroutine step did — the yield-effect
// vocabulary of the execution core. Machine-level operations (loads,
// stores, flushes, fences, lock ops, speculation ops) all decompose into
// these three effects: their timing is carried by the thread clock and
// their interaction with other cores by Block/Wake edges, so the kernel
// needs no richer alphabet to reproduce the schedule exactly.
type EffectKind uint8

const (
	// EffectAdvance: the thread moved its clock (or yielded
	// cooperatively) and is still runnable. All ready-heap bookkeeping
	// was already performed by the step.
	EffectAdvance EffectKind = iota
	// EffectBlock: the thread blocked awaiting a Wake. It removed
	// itself from the ready heap before yielding.
	EffectBlock
	// EffectDone: the thread body returned (or unwound after a panic
	// that the vehicle converted into a kernel stop). The kernel
	// finalizes the thread when it sees this effect.
	EffectDone
)

// Effect is the value a coroutine yields back to the kernel at each
// step: what the thread just did, with all thread bookkeeping (clock,
// ready/blocked state) already applied by the step itself.
type Effect struct {
	Kind EffectKind
}

// Coro is a resumable simulated-thread body: a step function the kernel
// calls inline on its own goroutine. Step runs the body until its next
// yield point and returns the effect; after EffectDone (or Abort) the
// coroutine must not be stepped again.
//
// Kernel.Spawn wraps an ordinary blocking-style body in a goCoro, a
// runtime pull-coroutine that gives it a real resumable frame without a
// scheduler handshake. Explicit state machines (frame and program
// counter spelled out as struct fields) can be stepped first-class via
// Kernel.SpawnCoro.
//
// Contract for explicit Coro implementations:
//   - Step performs bounded work, applies its own thread bookkeeping
//     via Thread.StepAdvance / Thread.StepBlock, and returns the
//     matching effect. Returning EffectAdvance more often than
//     StepAdvance demands is allowed (the kernel just re-dispatches);
//     blocking primitives that park the caller (Mutex.Lock, Block,
//     Advance) must not be called from Step — they require a
//     suspendable frame and panic if invoked on a step-coro thread.
//   - Abort is called instead of Step when the kernel abandons the
//     thread (Stop or deadlock); it must release any held resources.
//     It may be called before the first Step and must be idempotent.
type Coro interface {
	Step(t *Thread) Effect
	Abort(t *Thread)
}

// goCoro runs a blocking-style body inside a runtime pull-coroutine
// (iter.Pull). Resuming it is a direct coroutine switch on the kernel's
// goroutine — no channel operations, no scheduler round trip — which is
// what makes dispatch cheap. The body keeps its natural stack, so every
// yield point (deep inside machine operations included) is preserved
// exactly.
type goCoro struct {
	next  func() (Effect, bool)
	stop  func()
	yield func(Effect) bool
}

func newGoCoro(t *Thread, body func(*Thread)) *goCoro {
	c := &goCoro{}
	c.next, c.stop = iter.Pull(func(yield func(Effect) bool) {
		c.yield = yield
		defer threadExit(t)
		body(t)
	})
	return c
}

// threadExit is the body epilogue: it swallows the abandonment sentinel
// and converts any real panic in simulated code into the run's stop
// reason (first reason wins), instead of letting it tear through the
// kernel dispatch loop.
func threadExit(t *Thread) {
	if r := recover(); r != nil {
		if _, ok := r.(errKernelStopped); !ok {
			k := t.kernel
			k.running = false
			if !k.stopped {
				k.stopped = true
				k.stopErr = fmt.Errorf("sim: thread %q panicked: %v", t.name, r)
			}
		}
	}
}

func (c *goCoro) Step(t *Thread) Effect {
	eff, ok := c.next()
	if !ok {
		return Effect{Kind: EffectDone}
	}
	return eff
}

func (c *goCoro) Abort(t *Thread) {
	// stop makes the suspended yield return false; the body panics
	// errKernelStopped, unwinds through its defers, and the coroutine
	// finishes before stop returns. Never-started and already-finished
	// coroutines are no-ops.
	c.stop()
}
