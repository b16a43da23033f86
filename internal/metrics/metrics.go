// Package metrics is a small in-process time-series store standing in for
// Facebook's metric collection system (ODS) in the Turbine reproduction.
//
// Turbine's control loops are metric-driven: Task Managers report per-task
// resource usage, the load aggregator turns those into shard loads, and the
// Auto Scaler's Pattern Analyzer consults 14 days of per-minute workload
// history before approving a scaling plan. At fleet scale that is tens of
// thousands of writers appending every minute while the scaler reads, so
// the store is built for that shape:
//
//   - Series are spread over lock-striped buckets keyed by a hash of the
//     series name, so concurrent Record calls on different series never
//     contend on one global mutex. Each stripe's RWMutex guards only the
//     name→series map; the points themselves sit behind a per-series
//     mutex, making the write path a single uncontended lock in the
//     common case.
//   - Each series is a power-of-two ring of (unix-nanos, value) pairs.
//     Retention trims by advancing the head index — an integer compare
//     per append, amortized O(1) — and the slot an expired point vacates
//     is reused in place by the advancing ring, so there is no compaction
//     pass, ever: once the ring has grown to cover the retention window,
//     appends never copy and never allocate.
//   - Reads are allocation-free folds (RangeFold, RangeAgg, WindowAgg)
//     that visit points in place under the series lock.
//
// Hot writers (the Task Manager fleet, the cluster job monitor) can
// resolve a series once with Handle and append through it, skipping the
// per-call name lookup entirely.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
	"repro/internal/stripe"
)

// Point is a single observation in a series.
type Point struct {
	At    time.Time
	Value float64
}

// point is the internal representation: timestamps are canonical UTC
// unix-nanoseconds, so ordering and retention checks are integer
// compares and a point is 16 bytes instead of 32.
type point struct {
	at int64
	v  float64
}

func (p point) toPoint() Point { return Point{At: time.Unix(0, p.at).UTC(), Value: p.v} }

// numStripes is the lock-stripe fan-out. Power of two so the stripe index
// is a mask. 64 stripes keep the collision probability negligible for the
// few hundred goroutines a simulated fleet runs.
const numStripes = 64

// Store holds named time series with a shared retention horizon.
// It is safe for concurrent use.
type Store struct {
	clock     simclock.Clock
	retention time.Duration
	retNanos  int64
	dropped   atomic.Uint64

	stripes [numStripes]seriesStripe
}

type seriesStripe struct {
	mu     sync.RWMutex
	series map[string]*Series
}

// Series is a handle to one named series. Hot writers obtain it once via
// Store.Handle and append through it, skipping the name lookup that
// Record pays on every call. A handle stays valid forever; if the series
// is Deleted from the store, writes through an old handle land in the
// detached series and are no longer visible to name-based reads.
type Series struct {
	store    *Store
	retNanos int64

	mu   sync.Mutex
	buf  []point // power-of-two ring; live point i is buf[(head+i)&(len(buf)-1)]
	head int     // ring index of the oldest live point
	n    int     // live point count, ascending by at
}

// NewStore returns a Store that timestamps observations with clock and
// retains at least retention of history per series. A non-positive
// retention keeps everything.
func NewStore(clock simclock.Clock, retention time.Duration) *Store {
	s := &Store{clock: clock, retention: retention}
	if retention > 0 {
		s.retNanos = retention.Nanoseconds()
	}
	for i := range s.stripes {
		s.stripes[i].series = make(map[string]*Series)
	}
	return s
}

// stripeFor hashes a series name onto its stripe.
func (s *Store) stripeFor(name string) *seriesStripe {
	return &s.stripes[stripe.Hash(name)&(numStripes-1)]
}

// lookup returns the named series or nil, touching only the stripe's
// read lock.
func (s *Store) lookup(name string) *Series {
	st := s.stripeFor(name)
	st.mu.RLock()
	sr := st.series[name]
	st.mu.RUnlock()
	return sr
}

// Handle returns the named series, creating it if needed.
func (s *Store) Handle(name string) *Series {
	st := s.stripeFor(name)
	st.mu.RLock()
	sr := st.series[name]
	st.mu.RUnlock()
	if sr != nil {
		return sr
	}
	st.mu.Lock()
	if sr = st.series[name]; sr == nil {
		sr = &Series{store: s, retNanos: s.retNanos}
		st.series[name] = sr
	}
	st.mu.Unlock()
	return sr
}

// Record appends value to the named series at the current clock time.
func (s *Store) Record(name string, value float64) {
	s.Handle(name).append(s.clock.Now().UnixNano(), value)
}

// RecordAt appends value at an explicit timestamp. Out-of-order points
// (older than the series tail) are dropped and counted (see Dropped):
// Turbine's reporters are monotonic, and a deterministic store is worth
// more than a sorted insert.
func (s *Store) RecordAt(name string, at time.Time, value float64) {
	s.Handle(name).append(at.UnixNano(), value)
}

// Record appends value at the store clock's current time.
func (sr *Series) Record(value float64) {
	sr.append(sr.store.clock.Now().UnixNano(), value)
}

// RecordAt appends value at an explicit timestamp, with the same
// out-of-order drop rule as Store.RecordAt.
func (sr *Series) RecordAt(at time.Time, value float64) {
	sr.append(at.UnixNano(), value)
}

func (sr *Series) append(at int64, value float64) {
	sr.mu.Lock()
	if sr.n > 0 && at < sr.buf[(sr.head+sr.n-1)&(len(sr.buf)-1)].at {
		sr.mu.Unlock()
		sr.store.dropped.Add(1)
		return
	}
	if sr.retNanos > 0 {
		// Expire from the head — usually one integer compare. Each point
		// is examined once on its way out, so trimming stays amortized
		// O(1) per append, and the vacated slots are reused in place by
		// the advancing ring: there is no compaction pass to pay, ever.
		cutoff := at - sr.retNanos
		for sr.n > 0 && sr.buf[sr.head].at < cutoff {
			sr.head = (sr.head + 1) & (len(sr.buf) - 1)
			sr.n--
		}
	}
	if sr.n == len(sr.buf) {
		sr.grow()
	}
	sr.buf[(sr.head+sr.n)&(len(sr.buf)-1)] = point{at: at, v: value}
	sr.n++
	sr.mu.Unlock()
}

// grow doubles the ring (8 slots minimum), unwrapping the live points to
// the front of the new buffer. This is the only copy a series ever
// performs, and only while its live count is still climbing toward the
// retention window; at steady state expiry frees a slot for every append
// and the ring never reallocates.
func (sr *Series) grow() {
	newCap := len(sr.buf) * 2
	if newCap < 8 {
		newCap = 8
	}
	nb := make([]point, newCap)
	m := copy(nb, sr.buf[sr.head:])
	copy(nb[m:], sr.buf[:sr.head])
	sr.buf = nb
	sr.head = 0
}

// pt returns the i-th live point, 0 being the oldest. Caller holds sr.mu
// and guarantees 0 <= i < sr.n.
func (sr *Series) pt(i int) point {
	return sr.buf[(sr.head+i)&(len(sr.buf)-1)]
}

// Dropped reports how many points have been silently discarded by the
// out-of-order guard since the store was created. A growing value means a
// reporter is emitting non-monotonic timestamps — a bug that would
// otherwise be invisible.
func (s *Store) Dropped() uint64 { return s.dropped.Load() }

// Latest returns the most recent value of the named series.
func (s *Store) Latest(name string) (float64, bool) {
	sr := s.lookup(name)
	if sr == nil {
		return 0, false
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.n == 0 {
		return 0, false
	}
	return sr.pt(sr.n - 1).v, true
}

// bounds returns the half-open logical index range [lo, hi), in [0, n),
// of live points with fromN <= at <= toN. Caller holds sr.mu.
func (sr *Series) bounds(fromN, toN int64) (int, int) {
	// Manual binary searches over logical ring indices: no closure, no
	// allocation, int compares plus a mask per probe.
	lo, hi := 0, sr.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sr.pt(mid).at < fromN {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	first := lo
	lo, hi = first, sr.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sr.pt(mid).at <= toN {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return first, lo
}

// RangeFold calls fn for every point with from <= At <= to, in ascending
// time order, without copying. fn returning false stops the fold early.
// It returns false if the fold was stopped, true otherwise (including an
// empty range). fn runs under the series lock: it must be fast and must
// not call back into the store.
func (s *Store) RangeFold(name string, from, to time.Time, fn func(Point) bool) bool {
	sr := s.lookup(name)
	if sr == nil {
		return true
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	lo, hi := sr.bounds(from.UnixNano(), to.UnixNano())
	for i := lo; i < hi; i++ {
		if !fn(sr.pt(i).toPoint()) {
			return false
		}
	}
	return true
}

// Agg is the set of streaming aggregates a single in-place pass produces.
// Min and Max are only meaningful when Count > 0.
type Agg struct {
	Count    int
	Sum      float64
	Min, Max float64
}

// Mean returns Sum/Count, or 0 when the window was empty.
func (a Agg) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// RangeAgg folds all points with from <= At <= to into streaming
// aggregates in one pass under the series lock, allocating nothing. The
// accumulation order is ascending time.
func (s *Store) RangeAgg(name string, from, to time.Time) Agg {
	sr := s.lookup(name)
	if sr == nil {
		return Agg{}
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	lo, hi := sr.bounds(from.UnixNano(), to.UnixNano())
	var a Agg
	for i := lo; i < hi; i++ {
		v := sr.pt(i).v
		if a.Count == 0 {
			a.Min, a.Max = v, v
		} else {
			if v > a.Max {
				a.Max = v
			}
			if v < a.Min {
				a.Min = v
			}
		}
		a.Sum += v
		a.Count++
	}
	return a
}

// WindowAgg folds the trailing window (measured back from the current
// clock time) into streaming aggregates, allocation-free.
func (s *Store) WindowAgg(name string, window time.Duration) Agg {
	now := s.clock.Now()
	return s.RangeAgg(name, now.Add(-window), now)
}

// WindowAvg returns the mean of the named series over the trailing window,
// measured back from the current clock time.
func (s *Store) WindowAvg(name string, window time.Duration) (float64, bool) {
	a := s.WindowAgg(name, window)
	if a.Count == 0 {
		return 0, false
	}
	return a.Mean(), true
}

// WindowMax returns the maximum over the trailing window.
func (s *Store) WindowMax(name string, window time.Duration) (float64, bool) {
	a := s.WindowAgg(name, window)
	if a.Count == 0 {
		return 0, false
	}
	return a.Max, true
}

// Names returns all series names, sorted.
func (s *Store) Names() []string {
	var out []string
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.RLock()
		for name := range st.series {
			out = append(out, name)
		}
		st.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Delete removes the named series. Handles obtained before the delete
// keep writing into the detached series; name-based reads miss.
func (s *Store) Delete(name string) {
	st := s.stripeFor(name)
	st.mu.Lock()
	delete(st.series, name)
	st.mu.Unlock()
}

// Len reports the number of live (unexpired) points retained in the
// named series.
func (s *Store) Len(name string) int {
	sr := s.lookup(name)
	if sr == nil {
		return 0
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.n
}

// Mean returns the arithmetic mean of vs, or 0 for an empty slice.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// StdDev returns the population standard deviation of vs. Turbine uses it
// to measure input imbalance across the tasks of one job (§V-A).
func StdDev(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := Mean(vs)
	sum := 0.0
	for _, v := range vs {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(vs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) of vs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
// The input is not modified; hot paths where the caller owns the slice
// should use PercentileInPlace.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := make([]float64, len(vs))
	copy(sorted, vs)
	return PercentileInPlace(sorted, p)
}

// PercentileInPlace is Percentile without the defensive copy: it sorts vs
// in place. For callers that own the slice (or call repeatedly with
// several p values — the slice stays sorted), this removes the per-call
// allocation and re-sort.
func PercentileInPlace(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(vs) {
		sort.Float64s(vs)
	}
	if p <= 0 {
		return vs[0]
	}
	if p >= 100 {
		return vs[len(vs)-1]
	}
	rank := p / 100 * float64(len(vs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return vs[lo]
	}
	frac := rank - float64(lo)
	return vs[lo]*(1-frac) + vs[hi]*frac
}
