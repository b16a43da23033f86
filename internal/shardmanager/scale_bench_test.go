package shardmanager

// Million-task scale tier: the paper-scale shard fan
// of 100K shards spread over a 10K-container fleet — ten times the
// container count of BenchmarkRebalance, so the receiver heap and the
// per-container reverse index are exercised at the tier's fleet shape.
// Runs via `make bench-scale`; skips under -short.

import "testing"

// BenchmarkScaleRebalance1M times one balancing pass over 100K shards on
// 10K containers; it reports allocations and holds no ceiling.
func BenchmarkScaleRebalance1M(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	m := benchFleet(100_000, 10_000, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Rebalance()
	}
}
