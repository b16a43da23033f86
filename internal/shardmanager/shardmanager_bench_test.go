package shardmanager

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/simclock"
)

// benchFleet builds a manager with `containers` registered containers and
// all `shards` shards assigned, with a deterministic dyadic load pattern
// (exact float sums, so repeated passes are reproducible). A healthy
// fleet runs at ~50% of capacity; a saturated one carries more load than
// capacity×(1−headroom) allows, so donors exist that no receiver can
// absorb — the balancing worst case.
func benchFleet(shards, containers int, saturated bool) *Manager {
	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	m := New(clk, Options{NumShards: shards})
	capacity := config.Resources{CPUCores: 64, MemoryBytes: 1 << 38}
	for i := 0; i < containers; i++ {
		m.Register(fmt.Sprintf("c%05d", i), capacity, nil)
	}
	m.AssignUnassigned()
	shift := 29
	if saturated {
		shift = 30
	}
	for s := 0; s < shards; s++ {
		l := config.Resources{
			CPUCores:    float64(s%16) / 32,
			MemoryBytes: int64(s%8) << shift,
		}
		if saturated {
			l.CPUCores *= 2
		}
		m.ReportShardLoads(map[ShardID]config.Resources{ShardID(s): l})
	}
	m.Rebalance() // settle into a balanced fixpoint
	return m
}

// skewLoads concentrates load on the shards of the first `hot` containers
// so the next Rebalance has real bin-packing work to do.
func skewLoads(m *Manager, hot int) {
	ids := m.ContainerIDs()
	if hot > len(ids) {
		hot = len(ids)
	}
	for i := 0; i < hot; i++ {
		for _, s := range m.ShardsOf(ids[i]) {
			m.ReportShardLoads(map[ShardID]config.Resources{s: {CPUCores: 8, MemoryBytes: 16 << 30}})
		}
	}
}

// BenchmarkRebalance measures one balancing pass at paper scale
// (§VI-A: placement of 100K shards): 100K shards × 1K containers.
//
//   - steady: loads unchanged since the last pass, no moves needed — the
//     recurring cost of the 30-minute balancing tick in a healthy fleet.
//   - skew10: 10 containers' shards re-reported far hotter between
//     passes, so the pass must drain donors into receivers.
//   - saturated: the fleet is loaded beyond capacity×(1−headroom), so
//     donors exist but every receiver refuses on capacity — the pass
//     scans maximally and moves nothing.
func BenchmarkRebalance(b *testing.B) {
	const shards, containers = 100_000, 1_000

	b.Run("steady", func(b *testing.B) {
		m := benchFleet(shards, containers, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Rebalance()
		}
	})

	b.Run("skew10", func(b *testing.B) {
		m := benchFleet(shards, containers, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			skewLoads(m, 10)
			b.StartTimer()
			m.Rebalance()
		}
	})

	b.Run("saturated", func(b *testing.B) {
		m := benchFleet(shards, containers, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Rebalance()
		}
	})
}

// BenchmarkHeartbeatFanIn measures concurrent heartbeats from a 1K
// container fleet — the per-10s fan-in every container performs (§IV-C).
func BenchmarkHeartbeatFanIn(b *testing.B) {
	const containers = 1_000
	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	m := New(clk, Options{NumShards: 1024})
	ids := make([]string, containers)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%05d", i)
		m.Register(ids[i], config.Resources{CPUCores: 64, MemoryBytes: 1 << 38}, nil)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := m.Heartbeat(ids[i%containers]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkLoadReportFanIn measures concurrent one-shard load reports —
// the load-aggregator fan-in from every Task Manager (§IV-B).
func BenchmarkLoadReportFanIn(b *testing.B) {
	const shards = 100_000
	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	m := New(clk, Options{NumShards: shards})
	load := config.Resources{CPUCores: 0.25, MemoryBytes: 1 << 30}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.ReportShardLoads(map[ShardID]config.Resources{ShardID(i % shards): load})
			i++
		}
	})
}

// BenchmarkOwnerUnderRebalance measures the degraded-mode read path
// (§IV-D): Owner lookups racing a continuous balancing pass.
func BenchmarkOwnerUnderRebalance(b *testing.B) {
	const shards, containers = 100_000, 1_000
	m := benchFleet(shards, containers, false)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				skewLoads(m, 10)
				m.Rebalance()
			}
		}
	}()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.Owner(ShardID(i % shards))
			i++
		}
	})
	close(stop)
	<-done
}

// BenchmarkShardsOf measures the reverse lookup a container restart uses
// to recover its shard set.
func BenchmarkShardsOf(b *testing.B) {
	const shards, containers = 100_000, 1_000
	m := benchFleet(shards, containers, false)
	ids := m.ContainerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ShardsOf(ids[i%len(ids)])
	}
}
