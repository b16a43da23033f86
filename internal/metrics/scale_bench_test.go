package metrics

// Million-task scale tier: metric fan-in at 1M-series
// cardinality — the tier's per-task CPU/memory reporters all appending
// through pre-resolved handles with 14-day retention active, values
// drawn from the workload package's Millions diurnal generator so the
// tier's traffic shape drives the store. Retention trimming must stay
// amortized O(1) per append with no stop-the-world compaction, so the
// per-record cost is flat regardless of how long the series have lived.
// Runs via `make bench-scale`; skips under -short.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/workload"
)

// BenchmarkScaleMetricsFanIn1M appends a simulated minute of a million
// values with 14-day retention live, as a series per task and as a row
// per shard, and holds the warm appends to zero allocations.
func BenchmarkScaleMetricsFanIn1M(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	// The same million values a minute either way: a series per task, or a
	// row per shard of cpu | mem | disk | net.
	b.Run("series", func(b *testing.B) { benchFanIn(b, 1_000_000, 1) })
	b.Run("rows", func(b *testing.B) { benchFanIn(b, 250_000, 4) })
}

// benchFanIn appends to `writers` rows of k columns each, round-robin, a
// minute of simulated time per pass over them.
func benchFanIn(b *testing.B, writers, k int) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewSim(start)
	s := NewStore(clk, 14*24*time.Hour)
	rows := make([]*Row, writers)
	names := make([]string, k)
	for i := range rows {
		for c := range names {
			names[c] = fmt.Sprintf("task%07d/m%d", i, c)
		}
		rows[i] = s.Row(names...)
	}
	// One diurnal generator stands in for the fleet's aggregate; each
	// writer reports its sample of it. 128 jobs keeps the pattern set
	// small while the store still sees a million distinct names.
	patterns := workload.Millions(1, start, 128, 42)
	values := make([]float64, k)
	record := func(i int, at time.Time) {
		v := patterns[i%len(patterns)](at)
		for c := range values {
			values[c] = v + float64(c)
		}
		rows[i].RecordAt(at, values...)
	}
	// Seed every row with history so retention bookkeeping is live.
	at := start
	for r := 0; r < 4; r++ {
		at = at.Add(time.Minute)
		for i := range rows {
			record(i, at)
		}
	}
	// An append allocates nothing. The fifth pass is the probe: every ring
	// holds four rows of its first eight, so none grows — growth is the
	// one allocation a row ever makes, and it is amortized, not per call.
	var m0, m1 runtime.MemStats
	at = at.Add(time.Minute)
	runtime.ReadMemStats(&m0)
	for i := range rows {
		record(i, at)
	}
	runtime.ReadMemStats(&m1)
	// A process-wide delta picks up a stray runtime object now and then; a
	// per-append allocation would show up writers-fold.
	if n := m1.Mallocs - m0.Mallocs; n > 100 {
		b.Fatalf("%d appends of %d values allocated %d objects, want none", writers, k, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%writers == 0 {
			at = at.Add(time.Minute)
		}
		record(i%writers, at)
	}
}
