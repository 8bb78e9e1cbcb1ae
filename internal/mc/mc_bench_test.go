package mc

import (
	"testing"

	"pmemspec/internal/litmus"
)

// BenchmarkRunCorpus is the model checker's entry point on one worker:
// every cell of the multi-threaded litmus corpus, each non-equivalent
// schedule one small simulator run, each run's crash images classified.
// B/op counts what every schedule's trial allocates.
func BenchmarkRunCorpus(b *testing.B) {
	corpus := litmus.MTCorpus()
	b.ReportAllocs()
	for b.Loop() {
		if rep := RunCorpus(corpus, Options{Parallel: 1}); !rep.Ok() {
			b.Fatal(rep.Summary())
		}
	}
}
