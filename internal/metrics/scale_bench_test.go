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
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/workload"
)

func BenchmarkScaleMetricsFanIn1M(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	const series = 1_000_000
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.NewSim(start)
	s := NewStore(clk, 14*24*time.Hour)
	handles := make([]*Series, series)
	for i := range handles {
		handles[i] = s.Handle(fmt.Sprintf("task%07d/cpu", i))
	}
	// One diurnal generator stands in for the fleet's aggregate; each
	// task reports its sample of it. 128 jobs keeps the pattern set
	// small while the store still sees 1M distinct series.
	patterns := workload.Millions(1, start, 128, 42)
	// Seed every series with history so retention bookkeeping is live.
	at := start
	for r := 0; r < 4; r++ {
		at = at.Add(time.Minute)
		for i := range handles {
			handles[i].RecordAt(at, patterns[i%len(patterns)](at))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%series == 0 {
			at = at.Add(time.Minute)
		}
		h := handles[i%series]
		h.RecordAt(at, patterns[i%len(patterns)](at))
	}
}
