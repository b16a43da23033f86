package autoscaler

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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
		h.source.set(job, sig)
	}
}

// TestScanConcurrentWithQueries runs scans, with history recorded between
// them, while another goroutine asks for rate estimates, forgets jobs and
// reads the stats: the concurrency a scaler has, for the race detector.
// The scan itself is one sequential pass, so its actions come back in job
// order.
func TestScanConcurrentWithQueries(t *testing.T) {
	h := newHarness(t, Options{DefaultP: 2 * mb, DownscaleAfter: time.Minute}, nil)
	const jobs = 24
	mixedFleet(t, h, jobs)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			job := fmt.Sprintf("job%02d", i%jobs)
			h.scaler.PEstimate(job)
			if i%5 == 0 {
				h.scaler.Forget(job)
			}
			h.scaler.Stats()
		}
	}()
	acted := 0
	for scan := 0; scan < 20; scan++ {
		for j := 0; j < jobs; j++ {
			h.store.Record(InputRateSeries(fmt.Sprintf("job%02d", j)), float64(1+j%3)*mb)
		}
		acts := h.scaler.Scan()
		for i := 1; i < len(acts); i++ {
			if acts[i-1].Job >= acts[i].Job {
				t.Fatalf("scan %d: actions out of job order: %s after %s", scan, acts[i].Job, acts[i-1].Job)
			}
		}
		acted += len(acts)
		h.clk.RunFor(time.Minute)
	}
	close(done)
	wg.Wait()
	if st := h.scaler.Stats(); st.Scans != 20 || acted == 0 || len(h.alerts) == 0 || len(h.reb.calls) == 0 {
		t.Fatalf("stats %+v, %d actions, %d alerts, %d rebalances: the mixed fleet should produce all three", st, acted, len(h.alerts), len(h.reb.calls))
	}
}

// TestRecentPeakMatchesWindowFold holds the incremental recent peak to a
// fold of the window, bit for bit, over random programs: appends at the
// clock (many sharing a timestamp), before the tail (dropped), between the
// tail and the clock, and ahead of the clock; clock jumps longer than the
// window; reads at an earlier time than the last one; the series deleted
// and created again under its name; a window that changes between reads;
// and NaN, ±Inf and ±0 among the values. Retention is shorter than the
// longest window, so expiry trims windows too.
func TestRecentPeakMatchesWindowFold(t *testing.T) {
	windows := []time.Duration{0, time.Minute, 10 * time.Minute, 30 * time.Minute, 3 * time.Hour}
	specials := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := simclock.NewSim(epoch)
		store := metrics.NewStore(clk, 40*time.Minute)
		pa := NewPatternAnalyzer(store, clk)
		name := InputRateSeries("j")
		window := windows[rng.Intn(len(windows))]
		// Mostly at or below zero, so that windows whose maximum is a tie
		// between +0 and −0 — the first one is the fold's Max — are common.
		value := func() float64 {
			switch r := rng.Intn(60); {
			case r == 0:
				return math.NaN()
			case r < 10:
				return specials[rng.Intn(len(specials))]
			}
			return float64(rng.Intn(9)-6) * mb / 4
		}
		fromDeque := 0
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(100); {
			case r < 3:
				clk.RunFor(window + time.Duration(1+rng.Intn(120))*time.Minute)
			case r < 40:
				clk.RunFor(time.Duration(rng.Intn(3)) * time.Minute)
			}
			now := clk.Now()
			for k := rng.Intn(4); k > 0; k-- {
				at := now
				switch r := rng.Intn(20); {
				case r == 0:
					at = now.Add(-time.Duration(rng.Intn(40)) * time.Minute) // usually before the tail: dropped
				case r == 1:
					at = now.Add(time.Duration(1+rng.Intn(3)) * time.Minute) // ahead of the clock
				}
				store.RecordAt(name, at, value())
			}
			switch r := rng.Intn(100); {
			case r < 2:
				store.Delete(name)
			case r < 6:
				window = windows[rng.Intn(len(windows))]
			}
			if rng.Intn(15) == 0 {
				now = now.Add(-time.Duration(rng.Intn(20)) * time.Minute)
			}
			got, ok := pa.RecentPeak("j", window, now)
			want := store.Lookup(name).RangeAgg(now.Add(-window), now)
			if ok != (want.Count > 0) || math.Float64bits(got) != math.Float64bits(want.Max) {
				t.Fatalf("seed %d step %d, window %v: RecentPeak = %v, %v; the window folds to Max %v over %d points",
					seed, step, window, got, ok, want.Max, want.Count)
			}
			if j := pa.jobs["j"]; ok && j.recent.nanAt < now.Add(-window).UnixNano() {
				fromDeque++
			}
		}
		if fromDeque < 100 {
			t.Fatalf("seed %d: only %d of 400 reads answered from the deque", seed, fromDeque)
		}
	}
}
