package sim

import "fmt"

type threadState uint8

const (
	threadReady threadState = iota
	threadBlocked
	threadDone
)

// Thread is a simulated hardware thread. Its methods must only be called
// from inside the thread's own body function (except Wake, which any
// simulation context may call).
type Thread struct {
	id          int
	name        string
	clock       Time
	state       threadState
	readyIndex  int // position in the kernel's ready heap, -1 when absent
	blockReason string
	kernel      *Kernel
	coro        Coro
	body        *goCoro // non-nil iff coro runs a blocking-style body
}

// ID returns the thread's index in kernel creation order.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Clock returns the thread's local time.
func (t *Thread) Clock() Time { return t.clock }

// Kernel returns the owning kernel.
func (t *Thread) Kernel() *Kernel { return t.kernel }

// Advance moves the thread's clock forward by d cycles, yielding to the
// kernel if any event or lower-clock thread must run first. d must be ≥ 0.
func (t *Thread) Advance(d Time) {
	if t.StepAdvance(d) {
		t.checkpoint(Effect{Kind: EffectAdvance})
	}
}

// AdvanceTo moves the thread's clock to at least `at` (no-op if already
// past) and yields if necessary.
func (t *Thread) AdvanceTo(at Time) {
	if at > t.clock {
		t.Advance(at - t.clock)
	}
}

// Yield unconditionally hands control back to the kernel, letting due
// events and lower-clock threads run.
func (t *Thread) Yield() { t.checkpoint(Effect{Kind: EffectAdvance}) }

// Block suspends the thread until another simulation entity calls Wake.
// reason is reported in deadlock diagnostics.
func (t *Thread) Block(reason string) {
	t.StepBlock(reason)
	t.checkpoint(Effect{Kind: EffectBlock})
}

// StepAdvance moves the clock forward by d cycles and restores the ready
// heap, without yielding. It reports whether the thread must now yield
// (an event or lower-clock thread is due). Blocking-style bodies use
// Advance, which yields automatically; explicit Coro state machines call
// StepAdvance from Step and return EffectAdvance themselves.
func (t *Thread) StepAdvance(d Time) bool {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance(%d) with negative duration", d))
	}
	t.clock += d
	t.kernel.readyFix(t)
	return t.kernel.mustYield(t, t.clock)
}

// StepBlock marks the thread blocked and removes it from the ready heap,
// without yielding. Explicit Coro state machines call it from Step and
// return EffectBlock; blocking-style bodies use Block.
func (t *Thread) StepBlock(reason string) {
	t.state = threadBlocked
	t.blockReason = reason
	t.kernel.readyRemove(t)
}

// TryInlineEvent reports whether an event the running thread t is about
// to schedule at time `at` — one that services t itself and would be
// followed by Block — can instead run inline: true when no queued event
// fires at or before `at` and no runnable thread has clock strictly
// before `at`, i.e. had t blocked, the kernel could dispatch nothing
// before that event (threads at exactly `at` do not disqualify it:
// events tie-break ahead of threads, so the event would fire first
// anyway). On success the kernel's clock moves to `at` exactly as if
// the event had fired; the caller must run its handler body immediately
// and then call FinishInlineEvent with the time it would have passed to
// Wake. On failure nothing changes and the caller schedules + blocks as
// usual. Watches due by `at` fire before it returns true. Only
// blocking-style bodies may use this (explicit Coro state machines
// yield by returning effects).
func (t *Thread) TryInlineEvent(at Time) bool {
	k := t.kernel
	if at < t.clock {
		return false
	}
	if e := k.nextEvent(); e != nil && e.At <= at {
		return false
	}
	// Bump t to `at` first so the heap root is the earliest of the
	// OTHER runnable threads (or t itself): root.clock == at then means
	// nothing is due strictly before the event.
	saved := t.clock
	t.clock = at
	k.readyFix(t)
	if k.ready.peek().clock >= at {
		k.now = at
		// Watches due by `at` would fire before the event; fire them
		// now that the inline path is certain.
		if len(k.watches) > 0 && k.watches[0].at <= at && k.observeInline(at) {
			t.checkpoint(Effect{Kind: EffectAdvance})
		}
		return true
	}
	t.clock = saved
	k.readyFix(t)
	return false
}

// FinishInlineEvent completes an event inlined via TryInlineEvent: the
// thread's clock moves to `ready` (the Wake time the handler computed)
// and, if the kernel must dispatch something else first — an event due
// at or before `ready`, or a runnable thread preceding (ready, t.id) —
// the thread yields so global dispatch order is preserved exactly.
// Watches due by then fire inline when nothing else is due.
func (t *Thread) FinishInlineEvent(ready Time) {
	k := t.kernel
	if ready > t.clock {
		t.clock = ready
	}
	k.readyFix(t)
	if e := k.nextEvent(); (e != nil && e.At <= t.clock) || k.ready.peek() != t ||
		len(k.watches) > 0 && k.watches[0].at <= t.clock && k.observeInline(t.clock) {
		t.checkpoint(Effect{Kind: EffectAdvance})
		return
	}
	k.now = t.clock
}

// Wake makes a blocked thread runnable again with its clock advanced to
// at least `at`. Waking a ready or finished thread panics: it indicates a
// lost-wakeup protocol bug in the caller.
func (t *Thread) Wake(at Time) {
	if t.state != threadBlocked {
		panic(fmt.Sprintf("sim: Wake(%s) but thread is not blocked", t.name))
	}
	t.state = threadReady
	t.blockReason = ""
	if at > t.clock {
		t.clock = at
	}
	t.kernel.readyAdd(t)
}

// checkpoint suspends the body until the kernel resumes it. If the
// kernel abandoned the thread (Stop/deadlock), the body unwinds via the
// errKernelStopped sentinel, which threadExit recovers.
func (t *Thread) checkpoint(eff Effect) {
	if t.body == nil {
		panic(fmt.Sprintf("sim: thread %q: blocking primitive called from an explicit Coro.Step; use StepAdvance/StepBlock and return the effect", t.name))
	}
	if !t.body.yield(eff) {
		panic(errKernelStopped{})
	}
}
