package varmodel

import (
	"sync/atomic"
	"testing"
)

// BenchmarkDieInOrder measures die generation end to end at the QuickEnv
// map resolution: per op, one generator walks dies 0..15 in order (32
// maps through 16 pruned transform pairs; each odd die comes from its
// even sibling's transform via the pair table). ns/die is the comparable
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

// BenchmarkDieParallel measures one Generator shared by every benchmark
// goroutine at the QuickEnv map resolution, in the die-sweep access
// pattern: each goroutine takes the next pair k from a shared counter and
// asks for die 2k, then die 2k+1. With -cpu 2 it shows whether die
// generation scales across workers; ns/die is wall time per die.
func BenchmarkDieParallel(b *testing.B) {
	cfg := DefaultConfig()
	cfg.GridRows, cfg.GridCols = 128, 128
	g, err := NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := int(next.Add(1) - 1)
			for d := 0; d < 2; d++ {
				if _, err := g.Die(7, 2*k+d); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/die")
}
