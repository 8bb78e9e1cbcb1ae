package machine

import "testing"

// BenchmarkMachineNew measures the set-up every crash trial and
// model-checker schedule pays: New plus Release of a default-size
// 4-core machine. The PM images and the caches come back from their
// free lists, and the region-indexed block tables start empty, so B/op
// is the machine's small per-run structures (queues, buffers, the
// metrics registry): it tracks neither the 64 MB region nor the 16 MB
// LLC.
func BenchmarkMachineNew(b *testing.B) {
	for _, d := range []Design{PMEMSpec, HOPS} {
		cfg := DefaultConfig(d, 4)
		b.Run(d.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				m.Release()
			}
		})
	}
}
