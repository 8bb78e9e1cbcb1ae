package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// tieScenario spawns the watch tests' workload on k, appending every
// dispatch to *trace. It has each thing a watch must not perturb:
//   - a clock tie the running thread keeps the CPU through (b reaches
//     10, where a waits, and carries on);
//   - a contended Mutex handed off between the threads;
//   - PM-style self-service round trips that sometimes run inline
//     (TryInlineEvent/FinishInlineEvent) and sometimes block;
//   - events registered before the run and from inside it.
func tieScenario(k *Kernel, trace *[]string) {
	logf := func(format string, args ...any) { *trace = append(*trace, fmt.Sprintf(format, args...)) }
	var mu Mutex
	k.Schedule(20, func() { logf("pre@%d", k.Now()) })
	k.Spawn("a", 10, func(th *Thread) {
		for i := 0; i < 4; i++ {
			logf("a%d@%d", i, th.Clock())
			mu.Lock(th)
			th.Advance(15)
			mu.Unlock(th)
		}
	})
	k.Spawn("b", 0, func(th *Thread) {
		s := &selfService{t: th, trace: trace, tag: "b"}
		for i := 0; i < 4; i++ {
			logf("b%d@%d", i, th.Clock())
			th.Advance(10)
			logf("b%d'@%d/now%d", i, th.Clock(), k.Now())
			s.roundTrip(th.Clock()+7, 3, true)
			logf("b%d''@%d", i, th.Clock())
			mu.Lock(th)
			k.Schedule(th.Clock()+9, func() { logf("rt@%d", k.Now()) })
			th.Advance(5)
			mu.Unlock(th)
		}
	})
}

// tieHorizon is past the end of tieScenario's run.
const tieHorizon = Time(400)

// runTie runs tieScenario under pick (nil: default dispatch), after hook
// (if any) registers its observers, and returns the dispatch trace.
func runTie(t *testing.T, pick SchedulerFunc, hook func(k *Kernel, trace *[]string)) string {
	t.Helper()
	k := NewKernel()
	k.SetScheduler(pick)
	var trace []string
	tieScenario(k, &trace)
	if hook != nil {
		hook(k, &trace)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return strings.Join(trace, " ")
}

// maxIDPick is a controlled scheduler that always steps the newest
// runnable thread.
func maxIDPick(ready []*Thread) *Thread { return ready[len(ready)-1] }

// TestWatchTransparent: a watch at every instant leaves the dispatch
// trace unchanged, and each watch sees exactly the state an event at
// its instant sees when it fires — under the default dispatch and under
// controlled schedulers. A no-op event at the first clock tie does
// reorder the trace: that is why watches are not events.
func TestWatchTransparent(t *testing.T) {
	cases := []struct {
		name string
		pick SchedulerFunc
	}{
		{"default", nil},
		{"controlled-min", minPick},
		{"controlled-max-id", maxIDPick},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runTie(t, tc.pick, nil)
			seen := map[Time]string{}
			watched := runTie(t, tc.pick, func(k *Kernel, trace *[]string) {
				for at := Time(0); at <= tieHorizon; at++ {
					k.Watch(at, func() { seen[at] = strings.Join(*trace, " ") })
				}
			})
			if watched != base {
				t.Fatalf("watches perturbed dispatch:\nwithout: %s\nwith:    %s", base, watched)
			}
			if len(seen) != int(tieHorizon)+1 {
				t.Fatalf("%d of %d watches fired", len(seen), tieHorizon+1)
			}
			for at := Time(0); at <= tieHorizon; at++ {
				var snap string
				runTie(t, tc.pick, func(k *Kernel, trace *[]string) {
					k.Schedule(at, func() {
						snap = strings.Join(*trace, " ")
						k.Stop(nil)
					})
				})
				if snap != seen[at] {
					t.Fatalf("at %d the watch saw\n  %s\nbut an event saw\n  %s", at, seen[at], snap)
				}
			}
		})
	}
	t.Run("event-reorders", func(t *testing.T) {
		base := runTie(t, nil, nil)
		perturbed := runTie(t, nil, func(k *Kernel, _ *[]string) { k.Schedule(10, func() {}) })
		if perturbed == base {
			t.Fatal("a no-op event at the clock tie left the trace unchanged; the scenario no longer pins why Watch exists")
		}
	})
}

// TestWatchDrainBeforeDeadlock: watches still pending when every thread
// is blocked fire, in order, before the deadlock is reported; one that
// re-registers itself fires once, and a Stop from one wins over the
// deadlock.
func TestWatchDrainBeforeDeadlock(t *testing.T) {
	errStop := errors.New("stopped by a watch")
	cases := []struct {
		name    string
		watches func(k *Kernel, fired *[]Time)
		want    []Time
		wantErr func(error) bool
	}{
		{
			name: "pending-fire",
			watches: func(k *Kernel, fired *[]Time) {
				for _, at := range []Time{60, 3, 50} {
					k.Watch(at, func() { *fired = append(*fired, at) })
				}
			},
			want:    []Time{3, 50, 60},
			wantErr: func(err error) bool { return err != nil && strings.Contains(err.Error(), "deadlock") },
		},
		{
			name: "re-registering",
			watches: func(k *Kernel, fired *[]Time) {
				var poll func()
				next := Time(50)
				poll = func() {
					*fired = append(*fired, next)
					if k.AnyLive() {
						next += 10
						k.Watch(next, poll)
					}
				}
				k.Watch(next, poll)
			},
			want:    []Time{50},
			wantErr: func(err error) bool { return err != nil && strings.Contains(err.Error(), "deadlock") },
		},
		{
			name: "stop-wins",
			watches: func(k *Kernel, fired *[]Time) {
				k.Watch(50, func() { *fired = append(*fired, 50); k.Stop(errStop) })
				k.Watch(70, func() { *fired = append(*fired, 70) })
			},
			want:    []Time{50},
			wantErr: func(err error) bool { return errors.Is(err, errStop) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			k.Spawn("stuck", 0, func(th *Thread) {
				th.Advance(5)
				th.Block("forever")
			})
			var fired []Time
			tc.watches(k, &fired)
			err := k.Run()
			if !tc.wantErr(err) {
				t.Fatalf("Run = %v", err)
			}
			if !slices.Equal(fired, tc.want) {
				t.Fatalf("fired %v, want %v", fired, tc.want)
			}
		})
	}
}

// TestWatchStopYieldsAtOnce: a watch that stops the run from inside a
// running thread — at an Advance, on TryInlineEvent's inline path, or in
// FinishInlineEvent — makes the thread yield before its next statement,
// and a Stop from the dispatch loop ends the run before a later event.
func TestWatchStopYieldsAtOnce(t *testing.T) {
	errStop := errors.New("stopped by a watch")
	cases := []struct {
		name string
		at   Time
		body func(th *Thread)
	}{
		{"advance", 5, func(th *Thread) { th.Advance(10) }},
		{"try-inline", 5, func(th *Thread) { th.TryInlineEvent(10) }},
		{"finish-inline", 15, func(th *Thread) {
			if th.TryInlineEvent(10) {
				th.FinishInlineEvent(20)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			after := false
			k.Spawn("w", 0, func(th *Thread) {
				tc.body(th)
				after = true
			})
			fired := false
			k.Watch(tc.at, func() { fired = true; k.Stop(errStop) })
			if err := k.Run(); !errors.Is(err, errStop) {
				t.Fatalf("Run = %v, want the watch's stop", err)
			}
			if !fired || after {
				t.Fatalf("watch fired=%v, thread ran past the stop=%v", fired, after)
			}
		})
	}
	t.Run("dispatch-loop", func(t *testing.T) {
		k := NewKernel()
		late := false
		k.Schedule(20, func() { late = true })
		k.Watch(10, func() { k.Stop(errStop) })
		if err := k.Run(); !errors.Is(err, errStop) || late {
			t.Fatalf("Run = %v, later event fired = %v", err, late)
		}
	})
}

// TestWatchRegistrationOrder: watches fire in (time, registration) order
// however they were registered, including from inside another watch.
func TestWatchRegistrationOrder(t *testing.T) {
	cases := []struct {
		name string
		at   []Time
		want []string
	}{
		{"ascending", []Time{10, 20, 30}, []string{"10#0", "20#1", "30#2"}},
		{"descending", []Time{30, 20, 10}, []string{"10#2", "20#1", "30#0"}},
		{"ties", []Time{20, 10, 20, 10}, []string{"10#1", "10#3", "20#0", "20#2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			k.Spawn("w", 0, func(th *Thread) {
				for i := 0; i < 8; i++ {
					th.Advance(7)
				}
			})
			var got []string
			for i, at := range tc.at {
				k.Watch(at, func() { got = append(got, fmt.Sprintf("%d#%d", at, i)) })
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("fired %v, want %v", got, tc.want)
			}
		})
	}
	t.Run("from-a-watch", func(t *testing.T) {
		k := NewKernel()
		k.Spawn("w", 0, func(th *Thread) {
			for i := 0; i < 8; i++ {
				th.Advance(7)
			}
		})
		var got []string
		mark := func(s string) func() { return func() { got = append(got, s) } }
		k.Watch(30, mark("30"))
		k.Watch(10, func() {
			got = append(got, "10")
			k.Watch(25, mark("25"))
			k.Watch(10, mark("10'")) // still due: fires next
			k.Watch(5, mark("5"))    // already past: fires as soon as possible
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if want := []string{"10", "5", "10'", "25", "30"}; !slices.Equal(got, want) {
			t.Fatalf("fired %v, want %v", got, want)
		}
	})
}
