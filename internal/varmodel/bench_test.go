package varmodel

import "testing"

// BenchmarkDieInOrder measures die generation end to end at the QuickEnv
// map resolution: per op, one generator walks dies 0..15 in order (32
// maps through 16 pruned transform pairs; each odd die comes from its
// even sibling's transform via the pair cache). ns/die is the comparable
// unit against two BenchmarkCirculantSample ops.
func BenchmarkDieInOrder(b *testing.B) {
	const dies = 16
	cfg := DefaultConfig()
	cfg.GridRows, cfg.GridCols = 128, 128
	g, err := NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < dies; k++ {
			if _, err := g.Die(7, k); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*dies), "ns/die")
}
