package litmus

import (
	"fmt"
	"testing"

	"pmemspec/internal/fatomic"
	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/workload"
)

// logProbe is a litmus program whose Verify also checks that the
// runtime's reserved region — the roots and every thread's undo log —
// is still zero in each image the harness verifies.
type logProbe struct {
	*Program
	threads  int
	verified int
}

func (lp *logProbe) Verify(img *mem.Image, completedOps uint64) error {
	lp.verified++
	reserve := fatomic.HeapReserve(lp.threads)
	for off := uint64(0); off < reserve; off += 8 {
		if v := img.ReadU64(img.Base() + mem.Addr(off)); v != 0 {
			return fmt.Errorf("reserved byte %#x holds %#x: the log region was written", off, v)
		}
	}
	return lp.Program.Verify(img, completedOps)
}

// ownStores is how many stores a litmus program issues itself: Setup
// zeroes every variable once, then each OpStore stores once.
func ownStores(p Pattern) uint64 {
	n := uint64(p.NumVars())
	p.forEachOp(func(_ int, op Op) {
		if op.Kind == OpStore {
			n++
		}
	})
	return n
}

// TestLogFreeSkipsWarmup: a litmus program never opens a failure-atomic
// section, so the harness skips its log warm-up on both of its paths
// (harness.Run and a crash trial): the machine stores exactly the
// program's own stores and the log regions stay zero. A failure-atomic
// workload still warms every thread's log.
func TestLogFreeSkipsWarmup(t *testing.T) {
	var ps []Pattern
	for _, name := range []string{"flush-order", "sameline-order", "mt-cross-bare"} {
		p, ok := patternByName(name)
		if !ok {
			t.Fatalf("no litmus pattern %q", name)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		for _, d := range []machine.Design{machine.IntelX86, machine.HOPS, machine.PMEMSpec} {
			params := workload.Params{Threads: p.NThreads(), Ops: 1, Seed: 1}
			want := ownStores(p)
			t.Run(fmt.Sprintf("%s/%s/run", p.Name, d), func(t *testing.T) {
				lp := &logProbe{Program: NewProgram(p), threads: params.Threads}
				res, err := harness.Run(d, lp, params)
				if err != nil {
					t.Fatal(err)
				}
				if res.MStats.Stores != want || lp.verified == 0 {
					t.Errorf("%d stores (%d images verified), want the program's own %d", res.MStats.Stores, lp.verified, want)
				}
			})
			t.Run(fmt.Sprintf("%s/%s/trial", p.Name, d), func(t *testing.T) {
				lp := &logProbe{Program: NewProgram(p), threads: params.Threads}
				out, err := harness.RunTrialWith(harness.TrialSpec{Design: d, Params: params, Point: harness.NoCrash, Metrics: true}, lp)
				if err == nil {
					err = out.VerifyErr
				}
				if err != nil {
					t.Fatal(err)
				}
				got, _ := out.Metrics.Get("machine", "stores")
				if got.Value != want || lp.verified == 0 {
					t.Errorf("%d stores (%d images verified), want the program's own %d", got.Value, lp.verified, want)
				}
			})
		}
	}
	t.Run("fase-workload-warms", func(t *testing.T) {
		w, err := workload.ByName("queue")
		if err != nil {
			t.Fatal(err)
		}
		params := workload.Params{Threads: 2, Ops: 2, DataSize: 64, Seed: 1}
		res, err := harness.Run(machine.PMEMSpec, w, params)
		if err != nil {
			t.Fatal(err)
		}
		warm := uint64(params.Threads) * fatomic.LogRegionBytes / mem.BlockSize
		if res.MStats.Stores < warm {
			t.Errorf("%d stores, fewer than the %d of the log warm-up alone", res.MStats.Stores, warm)
		}
	})
}

// patternByName finds a pattern in either corpus.
func patternByName(name string) (Pattern, bool) {
	for _, p := range append(Corpus(), MTCorpus()...) {
		if p.Name == name {
			return p, true
		}
	}
	return Pattern{}, false
}
