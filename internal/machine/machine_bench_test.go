package machine

import "testing"

// BenchmarkMachineNew measures the set-up every crash trial and
// model-checker schedule pays: New plus Release of a default-size
// 4-core machine. B/op is what construction allocates beyond the
// recycled PM images; the region-indexed block tables start empty, so it
// tracks the cache geometry, not the 64 MB region.
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
