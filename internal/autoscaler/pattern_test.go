package autoscaler

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

// rangePoints copies the points with from <= At <= to out of the store,
// the snapshot read the legacy references were written against.
func rangePoints(store *metrics.Store, series string, from, to time.Time) []metrics.Point {
	var pts []metrics.Point
	store.RangeFold(series, from, to, func(p metrics.Point) bool {
		pts = append(pts, p)
		return true
	})
	return pts
}

// legacyDownscaleSafe is the pre-fold reference implementation: copy each
// day's horizon out of the store and compare its peak. The fold-based
// DownscaleSafe must reach the same decision on every input.
func legacyDownscaleSafe(pa *PatternAnalyzer, store *metrics.Store, now time.Time, job string, capacity float64) bool {
	horizon := time.Duration(pa.HorizonHours * float64(time.Hour))
	series := InputRateSeries(job)
	for d := 1; d <= historyDays; d++ {
		from := now.Add(-time.Duration(d) * 24 * time.Hour)
		pts := rangePoints(store, series, from, from.Add(horizon))
		if len(pts) == 0 {
			continue
		}
		peak := pts[0].Value
		for _, p := range pts[1:] {
			if p.Value > peak {
				peak = p.Value
			}
		}
		if peak*historySafety > capacity {
			return false
		}
	}
	return true
}

// legacyOutlier is the pre-fold reference: collect the current and the
// historical same-time-of-day windows as copies and compare averages.
func legacyOutlier(store *metrics.Store, now time.Time, job string) bool {
	const window = 30 * time.Minute
	series := InputRateSeries(job)
	cur := rangePoints(store, series, now.Add(-window), now)
	if len(cur) == 0 {
		return false
	}
	curSum := 0.0
	for _, p := range cur {
		curSum += p.Value
	}
	curAvg := curSum / float64(len(cur))

	histSum, histN := 0.0, 0
	for d := 1; d <= historyDays; d++ {
		to := now.Add(-time.Duration(d) * 24 * time.Hour)
		// Per-day partial sums, matching the fold's association order.
		daySum := 0.0
		pts := rangePoints(store, series, to.Add(-window), to)
		for _, p := range pts {
			daySum += p.Value
		}
		histSum += daySum
		histN += len(pts)
	}
	if histN == 0 {
		return false
	}
	histAvg := histSum / float64(histN)
	if histAvg <= 0 {
		return curAvg > 0
	}
	ratio := curAvg / histAvg
	return ratio > outlierFactor || ratio < 1/outlierFactor
}

// randomHistory writes days of per-minute input-rate history for a job,
// with optional whole-day gaps, ending at the clock's current time.
func randomHistory(store *metrics.Store, clk *simclock.Sim, job string, days int, rng *rand.Rand, gapDay int) {
	start := clk.Now()
	total := days * 24 * 60
	for m := 0; m < total; m++ {
		day := m / (24 * 60)
		if day == gapDay {
			continue
		}
		rate := rng.Float64() * 20 * mb
		store.RecordAt(InputRateSeries(job), start.Add(time.Duration(m)*time.Minute), rate)
	}
	clk.RunFor(time.Duration(total) * time.Minute)
}

func TestDownscaleSafeMatchesLegacy(t *testing.T) {
	clk := simclock.NewSim(epoch)
	store := metrics.NewStore(clk, 15*24*time.Hour)
	pa := NewPatternAnalyzer(store, clk)

	rng := rand.New(rand.NewSource(7))
	randomHistory(store, clk, "j1", historyDays+1, rng, 2) // one whole day missing
	// j2 has no history at all: both implementations must answer true.

	for step := 0; step < 30; step++ {
		now := clk.Now()
		for _, capMB := range []float64{1, 5, 12, 18, 25, 40} {
			capacity := capMB * mb
			got := pa.DownscaleSafe("j1", capacity)
			want := legacyDownscaleSafe(pa, store, now, "j1", capacity)
			if got != want {
				t.Fatalf("step %d cap %.0fMB: DownscaleSafe = %v, legacy = %v", step, capMB, got, want)
			}
		}
		if !pa.DownscaleSafe("j2", 1*mb) {
			t.Fatalf("step %d: no-history job not safe", step)
		}
		// Advance unevenly so consultations land both inside and across
		// time-of-day buckets, exercising hit and recompute paths.
		clk.RunFor(time.Duration(1+rng.Intn(9)) * time.Minute)
	}
	if pa.CacheHits() == 0 {
		t.Fatal("equivalence sweep never hit the cache")
	}
}

func TestOutlierMatchesLegacy(t *testing.T) {
	clk := simclock.NewSim(epoch)
	store := metrics.NewStore(clk, 15*24*time.Hour)
	pa := NewPatternAnalyzer(store, clk)

	rng := rand.New(rand.NewSource(11))
	randomHistory(store, clk, "j1", historyDays+1, rng, -1)

	for step := 0; step < 30; step++ {
		now := clk.Now()
		got := pa.Outlier("j1")
		want := legacyOutlier(store, now, "j1")
		if got != want {
			t.Fatalf("step %d: Outlier = %v, legacy = %v", step, got, want)
		}
		if pa.Outlier("j2") { // no data: never an outlier
			t.Fatalf("step %d: no-history job flagged as outlier", step)
		}
		// Fresh live traffic keeps the current window populated.
		store.Record(InputRateSeries("j1"), rng.Float64()*20*mb)
		clk.RunFor(time.Duration(1+rng.Intn(9)) * time.Minute)
	}
	if pa.CacheHits() == 0 {
		t.Fatal("equivalence sweep never hit the cache")
	}
}

func TestPatternCacheBucketBehavior(t *testing.T) {
	clk := simclock.NewSim(epoch)
	store := metrics.NewStore(clk, 15*24*time.Hour)
	pa := NewPatternAnalyzer(store, clk)

	// Two days of flat 5 MB/s history.
	start := clk.Now()
	for m := 0; m < 2*24*60; m++ {
		store.RecordAt(InputRateSeries("j1"), start.Add(time.Duration(m)*time.Minute), 5*mb)
	}
	clk.RunFor(2 * 24 * time.Hour)

	// First consultation computes and caches (capacity above peak × safety).
	if !pa.DownscaleSafe("j1", 10*mb) {
		t.Fatal("capacity above historical peak reported unsafe")
	}
	if pa.CacheHits() != 0 {
		t.Fatalf("CacheHits = %d before any repeat", pa.CacheHits())
	}
	// Same bucket: answered from cache, and the cached PEAK (not the
	// decision) is what is stored — a lower capacity must flip the answer.
	if !pa.DownscaleSafe("j1", 10*mb) {
		t.Fatal("cached consultation flipped the answer")
	}
	if pa.DownscaleSafe("j1", 4*mb) {
		t.Fatal("cache hit ignored the new, too-small capacity")
	}
	if pa.CacheHits() != 2 {
		t.Fatalf("CacheHits = %d, want 2", pa.CacheHits())
	}

	// Crossing the bucket boundary forces a recompute.
	clk.RunFor(historyBucket)
	if !pa.DownscaleSafe("j1", 10*mb) {
		t.Fatal("recompute after bucket boundary reported unsafe")
	}
	if pa.CacheHits() != 2 {
		t.Fatalf("CacheHits = %d after bucket boundary, want still 2", pa.CacheHits())
	}

	// Forget drops the entry: the next consultation recomputes.
	pa.Forget("j1")
	if !pa.DownscaleSafe("j1", 10*mb) {
		t.Fatal("recompute after Forget reported unsafe")
	}
	if pa.CacheHits() != 2 {
		t.Fatalf("CacheHits = %d after Forget, want still 2", pa.CacheHits())
	}

	// A partial (short-circuited) unsafe scan must not poison the cache:
	// unsafe answer now, correct full answer for a later larger capacity.
	pa.Forget("j1")
	if pa.DownscaleSafe("j1", 1*mb) {
		t.Fatal("capacity below peak reported safe")
	}
	if !pa.DownscaleSafe("j1", 10*mb) {
		t.Fatal("full scan after a partial one reported unsafe")
	}
}

// mixedFleet provisions a fleet whose scan produces every action shape:
// rebalances, horizontal ups, untriaged alerts, and quiet jobs.
func mixedFleet(t *testing.T, h *harness, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		job := fmt.Sprintf("job%02d", i)
		h.provision(t, job, 4, 256, 0)
		sig := baseSignals()
		switch i % 4 {
		case 0: // healthy: no action
		case 1: // lagged at capacity: horizontal up
			sig.InputRate = 40 * mb
			sig.ProcessingRate = 16 * mb
			sig.BacklogBytes = 100 * 1024 * mb
			sig.TaskRates = []float64{4 * mb, 4 * mb, 4 * mb, 4 * mb}
		case 2: // imbalanced: rebalance
			sig.BacklogBytes = 10 * 1024 * mb
			sig.ProcessingRate = 10 * mb
			sig.TaskRates = []float64{9 * mb, 0.3 * mb, 0.3 * mb, 0.3 * mb}
		case 3: // lag with near-stalled processing and tiny input: untriaged
			sig.InputRate = 1 * mb
			sig.ProcessingRate = 0.1 * mb
			sig.BacklogBytes = 1024 * mb
			sig.TaskRates = []float64{0.025 * mb, 0.025 * mb, 0.025 * mb, 0.025 * mb}
		}
		h.source.signals[job] = sig
	}
}

// harnessOnProcs builds a harness whose scaler sizes its scan pool for
// procs processors.
func harnessOnProcs(t *testing.T, procs int) *harness {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	h := newHarness(t, Options{DefaultP: 2 * mb}, nil)
	if h.scaler.workers != procs {
		t.Fatalf("scan pool is %d wide on %d processors", h.scaler.workers, procs)
	}
	return h
}

func TestParallelScanMatchesSequential(t *testing.T) {
	seqH := harnessOnProcs(t, 1)
	parH := harnessOnProcs(t, 8)
	mixedFleet(t, seqH, 16)
	mixedFleet(t, parH, 16)

	seq := seqH.scaler.Scan()
	par := parH.scaler.Scan()
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel scan diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	if len(par) == 0 {
		t.Fatal("mixed fleet produced no actions")
	}
	// Determinism: actions come back in JobNames (sorted) order regardless
	// of which worker decided them.
	names := parH.source.JobNames()
	pos := map[string]int{}
	for i, n := range names {
		pos[n] = i
	}
	for i := 1; i < len(par); i++ {
		if pos[par[i-1].Job] > pos[par[i].Job] {
			t.Fatalf("actions out of job order: %s after %s", par[i].Job, par[i-1].Job)
		}
	}
	// Same downstream effects: desired task counts agree job by job.
	for _, job := range names {
		if s, p := seqH.desiredTasks(t, job), parH.desiredTasks(t, job); s != p {
			t.Fatalf("%s desired tasks: sequential %d vs parallel %d", job, s, p)
		}
	}
	if seqStats, parStats := seqH.scaler.Stats(), parH.scaler.Stats(); seqStats != parStats {
		t.Fatalf("stats diverged:\nseq: %+v\npar: %+v", seqStats, parStats)
	}
}

// Stress the parallel path under the race detector: repeated scans over a
// fleet that keeps producing rebalances and alerts from many workers.
func TestParallelScanRace(t *testing.T) {
	h := harnessOnProcs(t, 8)
	mixedFleet(t, h, 24)
	for i := 0; i < 5; i++ {
		h.scaler.Scan()
		h.clk.RunFor(time.Minute)
	}
	if h.scaler.Stats().Scans != 5 {
		t.Fatalf("stats = %+v", h.scaler.Stats())
	}
	h.alertMu.Lock()
	alerts := len(h.alerts)
	h.alertMu.Unlock()
	if alerts == 0 {
		t.Fatal("no untriaged alerts from the mixed fleet")
	}
	h.reb.mu.Lock()
	rebs := len(h.reb.calls)
	h.reb.mu.Unlock()
	if rebs == 0 {
		t.Fatal("no rebalances from the mixed fleet")
	}
}
