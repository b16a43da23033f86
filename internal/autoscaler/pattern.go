package autoscaler

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

// InputRateSeries names the per-minute input-rate series for a job in the
// metric store. The cluster's job monitor records it; the Pattern Analyzer
// reads it (§V-C: "Turbine records per minute workload metrics during the
// last 14 days, such as input rate").
func InputRateSeries(job string) string { return "job/" + job + "/inputRate" }

// The Pattern Analyzer's control constants (§V-C).
const (
	// historyDays of per-minute workload metrics are consulted: the
	// paper's 14-day history.
	historyDays = 14
	// outlierFactor: when the last-30-minutes average differs from the
	// same-time-of-day historical average by more than this factor,
	// history-based decisions are disabled for the round.
	outlierFactor = 1.5
	// historySafety multiplies historical peaks before they are compared
	// with a downscale's capacity.
	historySafety = 1.1
	// historyBucket is the width of the time-of-day bucket cached history
	// aggregates are keyed by: within one bucket the historical peak and
	// average are computed once per job.
	historyBucket = 10 * time.Minute
)

// PatternAnalyzer consults historical workload patterns before the scaler
// commits to a plan (§V-C). Facebook's streaming workloads are strongly
// diurnal — within 1% day-over-day on aggregate — so history is a reliable
// veto for downscales that today's quiet moment would otherwise suggest.
//
// History reads fold over the metric store in place (no per-decision
// copies) through each job's input-rate series handle, resolved once, and
// the expensive aggregates — the historical peak ahead of this time of day,
// and the same-window historical average — are cached per (job,
// time-of-day bucket): past days are immutable, so within one bucket
// repeated decisions reuse the first consultation. The analyzer is
// safe for concurrent use by parallel scan workers.
type PatternAnalyzer struct {
	store *metrics.Store
	clock simclock.Clock

	// HorizonHours is x: a downscale must have sustained traffic for the
	// next x hours on each past day (default 2). Set it before the first
	// consultation: cached peaks are not keyed by it.
	HorizonHours float64

	mu     sync.Mutex
	inputs map[string]*metrics.Series // job -> its input-rate series
	peaks  map[string]peakEntry
	hists  map[string]histEntry
	hits   uint64
}

// peakEntry caches the historical peak input rate over the next
// HorizonHours at this time-of-day bucket, across all recorded past days.
// hasData is false when no past day had points in the horizon.
type peakEntry struct {
	bucket  int64 // unix nanos of the bucket start the entry was computed in
	peak    float64
	hasData bool
}

// histEntry caches the historical same-time-of-day 30-minute window
// aggregate the outlier check compares current traffic against.
type histEntry struct {
	bucket int64
	sum    float64
	count  int
}

// NewPatternAnalyzer returns an analyzer over the given metric store.
func NewPatternAnalyzer(store *metrics.Store, clock simclock.Clock) *PatternAnalyzer {
	return &PatternAnalyzer{
		store:        store,
		clock:        clock,
		HorizonHours: 2,
		inputs:       make(map[string]*metrics.Series),
		peaks:        make(map[string]peakEntry),
		hists:        make(map[string]histEntry),
	}
}

// input returns the handle of the job's input-rate series, or nil while
// nothing has been recorded under that name (reads through nil are empty).
// The handle is safe to keep without ever hearing of the job's removal:
// once the series is deleted, reads through it resolve the name again.
func (pa *PatternAnalyzer) input(job string) *metrics.Series {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	h := pa.inputs[job]
	if h == nil {
		if h = pa.store.Lookup(InputRateSeries(job)); h != nil {
			pa.inputs[job] = h
		}
	}
	return h
}

// bucketStart truncates now to the containing time-of-day bucket.
func bucketStart(now time.Time) int64 {
	return now.Truncate(historyBucket).UnixNano()
}

// CacheHits reports how many history consultations were answered from the
// per-bucket cache (observability for experiments).
func (pa *PatternAnalyzer) CacheHits() uint64 {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	return pa.hits
}

// DownscaleSafe reports whether a capacity of `capacity` bytes/second
// would have sustained the job's input during the next HorizonHours at
// this time of day on every recorded past day. Days without data are
// skipped; with no history at all the answer is true (the plan generator's
// own veto still protects against breaking the job's current traffic).
//
// The consultation short-circuits per day — a single day whose peak
// already exceeds the capacity answers false without reading the rest of
// history — and a completed consultation caches the overall historical
// peak for the current (job, time-of-day bucket), so repeated decisions
// in one scan round (or across scans within the bucket) are O(1).
func (pa *PatternAnalyzer) DownscaleSafe(job string, capacity float64) bool {
	now := pa.clock.Now()
	bucket := bucketStart(now)

	pa.mu.Lock()
	if e, ok := pa.peaks[job]; ok && e.bucket == bucket {
		pa.hits++
		pa.mu.Unlock()
		return !e.hasData || e.peak*historySafety <= capacity
	}
	pa.mu.Unlock()

	horizon := time.Duration(pa.HorizonHours * float64(time.Hour))
	series := pa.input(job)
	peak := 0.0
	hasData := false
	for d := 1; d <= historyDays; d++ {
		from := now.Add(-time.Duration(d) * 24 * time.Hour)
		a := series.RangeAgg(from, from.Add(horizon))
		if a.Count == 0 {
			continue
		}
		if a.Max*historySafety > capacity {
			// Day-level short-circuit: this day alone vetoes the
			// downscale. The scan is partial, so nothing is cached.
			return false
		}
		if !hasData || a.Max > peak {
			peak = a.Max
		}
		hasData = true
	}

	pa.mu.Lock()
	pa.peaks[job] = peakEntry{bucket: bucket, peak: peak, hasData: hasData}
	pa.mu.Unlock()
	return true
}

// Outlier reports whether current traffic deviates from the diurnal
// pattern: the average input rate over the last 30 minutes differs from
// the average over the same window on past days by more than
// outlierFactor. During an outlier (e.g. a disaster-recovery storm),
// history-based decision making is disabled (§V-C) and the scaler acts on
// live signals only.
//
// Both averages are folded in place; the historical one is cached per
// (job, time-of-day bucket) like the downscale peak.
func (pa *PatternAnalyzer) Outlier(job string) bool {
	now := pa.clock.Now()
	const window = 30 * time.Minute
	series := pa.input(job)

	cur := series.RangeAgg(now.Add(-window), now)
	if cur.Count == 0 {
		return false
	}
	curAvg := cur.Mean()

	bucket := bucketStart(now)
	pa.mu.Lock()
	e, ok := pa.hists[job]
	if ok && e.bucket == bucket {
		pa.hits++
		pa.mu.Unlock()
	} else {
		pa.mu.Unlock()
		e = histEntry{bucket: bucket}
		for d := 1; d <= historyDays; d++ {
			to := now.Add(-time.Duration(d) * 24 * time.Hour)
			a := series.RangeAgg(to.Add(-window), to)
			e.sum += a.Sum
			e.count += a.Count
		}
		pa.mu.Lock()
		pa.hists[job] = e
		pa.mu.Unlock()
	}
	if e.count == 0 {
		return false
	}
	histAvg := e.sum / float64(e.count)
	if histAvg <= 0 {
		return curAvg > 0
	}
	ratio := curAvg / histAvg
	return ratio > outlierFactor || ratio < 1/outlierFactor
}

// RecentPeak returns the maximum input rate over the trailing window, used
// as the sizing basis for downscales (never the instantaneous rate).
func (pa *PatternAnalyzer) RecentPeak(job string, window time.Duration) (float64, bool) {
	a := pa.input(job).WindowAgg(window)
	return a.Max, a.Count > 0
}

// Forget drops the series handle and the cached history aggregates of a
// job (e.g. after its series was deleted). Safe to call for unknown jobs.
func (pa *PatternAnalyzer) Forget(job string) {
	pa.mu.Lock()
	delete(pa.inputs, job)
	delete(pa.peaks, job)
	delete(pa.hists, job)
	pa.mu.Unlock()
}
