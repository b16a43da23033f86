package metrics

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simclock"
)

// benchStore builds a store with `series` named series of `perSeries`
// one-minute-apart points each, ending at the clock's current time.
func benchStore(series, perSeries int, retention time.Duration) (*Store, *simclock.Sim) {
	clk := simclock.NewSim(epoch)
	s := NewStore(clk, retention)
	for i := 0; i < perSeries; i++ {
		at := epoch.Add(time.Duration(i) * time.Minute)
		for j := 0; j < series; j++ {
			s.RecordAt(fmt.Sprintf("job/j%04d/inputRate", j), at, float64(i+j))
		}
	}
	clk.RunFor(time.Duration(perSeries) * time.Minute)
	return s, clk
}

// BenchmarkRecordParallel16 hammers Record from 16 goroutines, each on
// its own series — the Task Manager fleet reporting per-task usage. With
// one global mutex every writer serializes; the striped store must let
// disjoint series proceed independently (issue target: >=5x).
func BenchmarkRecordParallel16(b *testing.B) {
	clk := simclock.NewSim(epoch)
	s := NewStore(clk, time.Hour)
	var ctr int64
	b.SetParallelism(16)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine series name, like per-task reporters.
		name := fmt.Sprintf("task/t%05d/cpu", atomic.AddInt64(&ctr, 1))
		at := epoch
		for pb.Next() {
			at = at.Add(time.Second)
			s.RecordAt(name, at, 1.0)
		}
	})
}

// BenchmarkRecordHandleParallel16 is the same workload through cached
// series handles — the fleet-reporter idiom (resolve the series once,
// append every minute). This is the write path the cluster job monitor
// uses after the striped-store migration.
func BenchmarkRecordHandleParallel16(b *testing.B) {
	clk := simclock.NewSim(epoch)
	s := NewStore(clk, time.Hour)
	var ctr int64
	b.SetParallelism(16)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		h := s.Handle(fmt.Sprintf("task/t%05d/cpu", atomic.AddInt64(&ctr, 1)))
		at := epoch
		for pb.Next() {
			at = at.Add(time.Second)
			h.RecordAt(at, 1.0)
		}
	})
}

// BenchmarkRecordSequential is the single-writer floor: striping must not
// regress the uncontended path.
func BenchmarkRecordSequential(b *testing.B) {
	clk := simclock.NewSim(epoch)
	s := NewStore(clk, 0)
	at := epoch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Second)
		s.RecordAt("task/t0/cpu", at, 1.0)
	}
}

// BenchmarkRecordRetention exercises the steady-state trim path: a
// bounded window means every append eventually pays for compaction.
func BenchmarkRecordRetention(b *testing.B) {
	clk := simclock.NewSim(epoch)
	s := NewStore(clk, time.Hour)
	at := epoch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Second)
		s.RecordAt("task/t0/cpu", at, 1.0)
	}
}

// BenchmarkWindowAvg reads a 30-minute trailing window over a 14-day
// series — the Pattern Analyzer's per-decision read shape.
func BenchmarkWindowAvg(b *testing.B) {
	s, _ := benchStore(1, 14*24*60, 0)
	name := "job/j0000/inputRate"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.WindowAvg(name, 30*time.Minute); !ok {
			b.Fatal("no data")
		}
	}
}

// BenchmarkRangeRead scans a 2-hour horizon out of 14 days of history,
// the DownscaleSafe per-day read.
func BenchmarkRangeRead(b *testing.B) {
	s, clk := benchStore(1, 14*24*60, 0)
	name := "job/j0000/inputRate"
	from := clk.Now().Add(-7 * 24 * time.Hour)
	to := from.Add(2 * time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.RangeAgg(name, from, to).Sum == 0 {
			b.Fatal("empty range")
		}
	}
}
