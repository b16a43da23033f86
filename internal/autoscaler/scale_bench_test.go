package autoscaler

import (
	"fmt"
	"runtime"
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
	source := &fakeSource{}

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
		source.set(name, baseSignals())
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
	for i, job := range source.jobs {
		sig := *source.sigs[i]
		sig.InputRate = 2 * mb
		sig.ProcessingRate = 2 * mb
		source.set(job, sig)
	}
	sc.Scan() // create per-job state (starts the symptom-free window)
	clk.RunFor(2 * time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Scan()
	}
}

// scanAllocCeiling bounds the objects one scan of BenchmarkScaleScan10K
// allocates: the source's copy of the signals slice and the growth of the
// actions slice to a hundred entries come to ten; the slack is for the
// runtime's own. A per-job allocation would show up ten thousand-fold.
const scanAllocCeiling = 40

type nopRebalancer struct{}

func (nopRebalancer) RebalanceInput(string) error { return nil }

// BenchmarkScaleScan10K is one scan at fleet scale: 10 000 jobs with an
// hour of per-minute input-rate history, 1 % of them lagging on
// imbalanced input (each is rebalanced), the rest healthy, symptom-free
// past DownscaleAfter and sized right for their traffic — so each of them
// reads its recent peak and keeps its tasks, the decision nearly every job
// takes on nearly every scan. An op is a simulated minute: every job
// records its point (untimed), then the scaler scans. The allocation
// ceiling is an in-bench MemStats delta, so one iteration (make
// bench-scale) arms it.
func BenchmarkScaleScan10K(b *testing.B) {
	if testing.Short() {
		b.Skip("scale tier: run via make bench-scale")
	}
	const jobs, symptomatic = 10_000, 100
	clk := simclock.NewSim(epoch)
	store := metrics.NewStore(clk, 15*24*time.Hour)
	source := &fakeSource{}
	inputs := make([]*metrics.Series, jobs)
	for j := range inputs {
		name := fmt.Sprintf("job%05d", j)
		sig := baseSignals()
		sig.InputRate, sig.ProcessingRate = 12*mb, 12*mb
		if j%(jobs/symptomatic) == 0 {
			sig.BacklogBytes = 10 * 1024 * mb
			sig.ProcessingRate = 10 * mb
			sig.TaskRates = []float64{9 * mb, 0.3 * mb, 0.3 * mb, 0.3 * mb}
		}
		source.set(name, sig)
		inputs[j] = store.Handle(InputRateSeries(name))
	}
	sc := New(jobservice.New(jobstore.New()), source, store, clk, nopRebalancer{}, nil, Options{DownscaleAfter: time.Minute})
	// A ten-minute sawtooth, phase-shifted per job, between 11 and 12.8
	// MB/s: every job stays at its 4 tasks. An hour of it — two windows —
	// grows every recent-peak deque to the size it keeps.
	m := 0
	minute := func() {
		clk.RunFor(time.Minute)
		now := clk.Now()
		for j, in := range inputs {
			in.RecordAt(now, (11+0.2*float64((j+m)%10))*mb)
		}
		m++
	}
	for range 60 {
		minute()
		sc.Scan()
	}

	minute()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	acts := sc.Scan()
	runtime.ReadMemStats(&m1)
	if len(acts) != symptomatic {
		b.Fatalf("scan took %d actions, want the %d rebalances", len(acts), symptomatic)
	}
	if n := m1.Mallocs - m0.Mallocs; n > scanAllocCeiling {
		b.Fatalf("a scan of %d jobs allocated %d objects, ceiling %d", jobs, n, scanAllocCeiling)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		minute()
		b.StartTimer()
		sc.Scan()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
}
