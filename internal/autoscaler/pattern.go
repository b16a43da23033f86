package autoscaler

import (
	"math"
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
// repeated decisions reuse the first consultation. The recent peak every
// downscale is sized from is kept incrementally (see RecentPeak). The
// analyzer is safe for concurrent use: a scan consults it while the job
// table's owner may Forget a job.
type PatternAnalyzer struct {
	store *metrics.Store
	clock simclock.Clock

	// HorizonHours is x: a downscale must have sustained traffic for the
	// next x hours on each past day (default 2). Set it before the first
	// consultation: cached peaks are not keyed by it.
	HorizonHours float64

	mu   sync.Mutex
	jobs map[string]*jobPattern
	hits uint64
}

// jobPattern is what the analyzer keeps per job, all of it forgotten
// together.
type jobPattern struct {
	input  *metrics.Series // the input-rate series; nil until it exists
	peak   peakEntry
	hist   histEntry
	recent recentPeak
}

// peakEntry caches the historical peak input rate over the next
// HorizonHours at this time-of-day bucket, across all recorded past days.
// hasData is false when no past day had points in the horizon.
type peakEntry struct {
	cached  bool
	bucket  int64 // unix nanos of the bucket start the entry was computed in
	peak    float64
	hasData bool
}

// histEntry caches the historical same-time-of-day 30-minute window
// aggregate the outlier check compares current traffic against.
type histEntry struct {
	cached bool
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
		jobs:         make(map[string]*jobPattern),
	}
}

// jobLocked returns the job's entry, creating it, with the handle of its
// input-rate series resolved once that series exists (reads through a nil
// handle are empty). The handle is safe to keep without ever hearing of the
// job's removal: once the series is deleted, reads through it resolve the
// name again. Caller holds pa.mu.
func (pa *PatternAnalyzer) jobLocked(job string) *jobPattern {
	j := pa.jobs[job]
	if j == nil {
		j = &jobPattern{}
		pa.jobs[job] = j
	}
	if j.input == nil {
		j.input = pa.store.Lookup(InputRateSeries(job))
	}
	return j
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
	j := pa.jobLocked(job)
	if e := j.peak; e.cached && e.bucket == bucket {
		pa.hits++
		pa.mu.Unlock()
		return !e.hasData || e.peak*historySafety <= capacity
	}
	series := j.input
	pa.mu.Unlock()

	horizon := time.Duration(pa.HorizonHours * float64(time.Hour))
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
	j.peak = peakEntry{cached: true, bucket: bucket, peak: peak, hasData: hasData}
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
	pa.mu.Lock()
	j := pa.jobLocked(job)
	series := j.input
	pa.mu.Unlock()

	cur := series.RangeAgg(now.Add(-window), now)
	if cur.Count == 0 {
		return false
	}
	curAvg := cur.Mean()

	bucket := bucketStart(now)
	pa.mu.Lock()
	e := j.hist
	if e.cached && e.bucket == bucket {
		pa.hits++
		pa.mu.Unlock()
	} else {
		pa.mu.Unlock()
		e = histEntry{cached: true, bucket: bucket}
		for d := 1; d <= historyDays; d++ {
			to := now.Add(-time.Duration(d) * 24 * time.Hour)
			a := series.RangeAgg(to.Add(-window), to)
			e.sum += a.Sum
			e.count += a.Count
		}
		pa.mu.Lock()
		j.hist = e
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

// RecentPeak returns the maximum input rate over the window trailing now —
// exactly the Max and Count > 0 of the series' RangeAgg over [now −
// window, now] — used as
// the sizing basis for downscales (never the instantaneous rate).
//
// It is kept incrementally, because nearly every job asks on every scan: a
// monotonic deque of the window's points, fed through a cursor with only
// the points recorded since the last call. See recentPeak for when it
// starts over.
func (pa *PatternAnalyzer) RecentPeak(job string, window time.Duration, now time.Time) (float64, bool) {
	pa.mu.Lock()
	defer pa.mu.Unlock()
	j := pa.jobLocked(job)
	return j.recent.read(j.input.Live(), window, now)
}

// Forget drops the series handle, the cached history aggregates and the
// recent-peak deque of a job (e.g. after its series was deleted). Safe to
// call for unknown jobs.
func (pa *PatternAnalyzer) Forget(job string) {
	pa.mu.Lock()
	delete(pa.jobs, job)
	pa.mu.Unlock()
}

// recentPeak is RecentPeak's state for one job: the window's points, oldest
// first, with every point that a later, strictly greater one outranks
// dropped, so the front is the window's maximum — the earliest point of
// that value, as a fold's Max is. It starts over from one fold of the whole
// window whenever the series behind the handle is a different one (deleted,
// then re-created under the name), the window differs from the last call's,
// or the clock went backwards.
//
// NaN compares false both ways, so a fold's Max depends on where in the
// window a NaN stands. NaNs are therefore kept out of the deque, and while
// one is in the window the answer comes from an ordinary fold.
type recentPeak struct {
	src    *metrics.Series // the live series the deque was fed from
	window time.Duration
	now    int64 // the last call's clock, unix nanos
	cur    metrics.Cursor
	nanAt  int64 // timestamp of the newest NaN fed
	q      []peakPoint
	head   int // q[head:] is the deque
}

type peakPoint struct {
	at int64
	v  float64
}

func (p *recentPeak) read(src *metrics.Series, window time.Duration, now time.Time) (float64, bool) {
	if src == nil {
		p.src = nil
		return 0, false
	}
	from := now.Add(-window)
	fromN, nowN := from.UnixNano(), now.UnixNano()
	if src != p.src || window != p.window || nowN < p.now {
		*p = recentPeak{src: src, window: window, cur: metrics.Cursor{At: fromN}, nanAt: math.MinInt64, q: p.q[:0]}
	}
	p.now = nowN
	var oldest int64
	p.cur, oldest = src.FoldSince(p.cur, now, p.push)
	// Drop what left the window, or the store.
	lo := max(fromN, oldest)
	for p.head < len(p.q) && p.q[p.head].at < lo {
		p.head++
	}
	if p.nanAt >= lo {
		a := src.RangeAgg(from, now)
		return a.Max, a.Count > 0
	}
	if p.head == len(p.q) {
		return 0, false
	}
	return p.q[p.head].v, true
}

// push feeds the next point, in time order.
func (p *recentPeak) push(at int64, v float64) {
	if v != v {
		p.nanAt = at
		return
	}
	for len(p.q) > p.head && p.q[len(p.q)-1].v < v {
		p.q = p.q[:len(p.q)-1]
	}
	if p.head == len(p.q) {
		p.q, p.head = p.q[:0], 0
	} else if p.head > 0 && len(p.q) == cap(p.q) {
		p.q, p.head = p.q[:copy(p.q, p.q[p.head:])], 0
	}
	p.q = append(p.q, peakPoint{at: at, v: v})
}
