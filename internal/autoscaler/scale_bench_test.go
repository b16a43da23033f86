package autoscaler

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// benchFleet builds a scaler over `jobs` healthy jobs, each with `days`
// of per-minute input-rate history in the metric store — the
// §V-C shape the Pattern Analyzer consults on every downscale decision.
// With provision=false actuation fails (job unknown to the Job Service),
// which pins benchmarks to the decision path: state never records an
// action, so every scan repeats the full consultation.
func benchFleet(b *testing.B, jobs, days int, provision bool, opts Options) (*Scaler, *fakeSource, *simclock.Sim) {
	b.Helper()
	clk := simclock.NewSim(epoch)
	store := metrics.NewStore(clk, 15*24*time.Hour)
	js := jobservice.New(jobstore.New())
	source := &fakeSource{signals: map[string]Signals{}}

	minutes := days * 24 * 60
	for j := 0; j < jobs; j++ {
		name := fmt.Sprintf("job%04d", j)
		if provision {
			err := js.Provision(&config.JobConfig{
				Name:           name,
				Package:        config.Package{Name: "tailer", Version: "v1"},
				TaskCount:      4,
				ThreadsPerTask: 2,
				TaskResources:  config.Resources{CPUCores: 2, MemoryBytes: 1 << 30},
				Operator:       config.OpTailer,
				Input:          config.Input{Category: name + "_in", Partitions: 256},
				SLOSeconds:     90,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		source.signals[name] = baseSignals()
		series := InputRateSeries(name)
		for i := 0; i < minutes; i++ {
			store.RecordAt(series, epoch.Add(time.Duration(i)*time.Minute), 6*mb)
		}
	}
	clk.RunFor(time.Duration(minutes) * time.Minute)
	return New(js, source, store, clk, nil, nil, opts), source, clk
}

// BenchmarkDownscaleSafe measures one history consultation: 14 days x a
// 2-hour horizon of per-minute points.
func BenchmarkDownscaleSafe(b *testing.B) {
	sc, _, _ := benchFleet(b, 1, historyDays, false, Options{})
	pa := sc.pattern
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pa.DownscaleSafe("job0000", 100*mb) {
			b.Fatal("expected safe")
		}
	}
}

// BenchmarkOutlier measures the 30-minute current-vs-history comparison.
func BenchmarkOutlier(b *testing.B) {
	sc, _, _ := benchFleet(b, 1, historyDays, false, Options{})
	pa := sc.pattern
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pa.Outlier("job0000") {
			b.Fatal("flat traffic flagged as outlier")
		}
	}
}

// BenchmarkScan1kHealthy is the full-fleet decision pass: 1000 healthy
// jobs inside their symptom-free window, nothing to do. This is the
// scaler's floor cost every ScanInterval.
func BenchmarkScan1kHealthy(b *testing.B) {
	sc, _, _ := benchFleet(b, 1000, 0, false, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Scan()
	}
}

// BenchmarkScan1kDownscale forces every job down the expensive path:
// symptom-free past DownscaleAfter and oversized for its traffic, so the
// Pattern Analyzer consults history (outlier check + downscale safety)
// for all 1000 jobs in every scan. History is 3 days rather than 14 to
// keep the setup (4.3M recorded points) tractable; per-job cost scales
// linearly in days. Actuation is stubbed out (jobs unknown to the Job
// Service), so the decision repeats each round exactly as it would
// across successive real scan intervals.
func BenchmarkScan1kDownscale(b *testing.B) {
	sc, source, clk := benchFleet(b, 1000, 3, false, Options{DownscaleAfter: time.Minute})
	// Traffic well below capacity so nPrime < n and history is consulted.
	for name, sig := range source.signals {
		sig.InputRate = 2 * mb
		sig.ProcessingRate = 2 * mb
		source.signals[name] = sig
	}
	sc.Scan() // create per-job state (starts the symptom-free window)
	clk.RunFor(2 * time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Scan()
	}
}
