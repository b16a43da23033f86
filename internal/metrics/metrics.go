// Package metrics is a small in-process time-series store standing in for
// Facebook's metric collection system (ODS) in the Turbine reproduction.
//
// Turbine's control loops are metric-driven: Task Managers report per-shard
// resource usage, the load aggregator turns those into shard loads, and the
// Auto Scaler's Pattern Analyzer consults 14 days of per-minute workload
// history before approving a scaling plan. At fleet scale that is tens of
// thousands of writers appending every minute while the scaler reads, so
// the store is built for that shape:
//
//   - There is one storage shape, the Row: a power-of-two ring of
//     [at, v0 … vk-1] rows behind one mutex. A writer that reports several
//     values at once — a job's input rate, backlog and task counts; a
//     shard's cpu, mem, disk and net — registers them as the columns of
//     one Row and appends them together: one lock, one timestamp, one
//     stretch of memory written. A plain Series is a one-column Row.
//   - Every column has a name of its own. Names are spread over
//     lock-striped maps keyed by a hash of the name, so lookups and
//     creations of different names do not contend on one global mutex.
//   - Retention trims by advancing the ring's head index — an integer
//     compare per append, amortized O(1) — and the slot an expired row
//     vacates is reused in place by the advancing ring, so there is no
//     compaction pass, ever: once the ring has grown to cover the
//     retention window, appends never copy and never allocate.
//   - Reads are allocation-free folds (RangeFold, RangeAgg, WindowAgg;
//     Row.WindowAggs for every column at once; FoldSince for only the
//     points after a reader's cursor) that visit the rows in place under
//     the row's lock. The bounds of a time range are searched from the
//     newest row back, so the trailing windows the control loops mostly
//     read touch only the rows just written.
//
// Hot writers and readers resolve a Row or Series once and go through the
// handle, skipping the per-call name lookup. A handle cannot serve stale
// data: Delete detaches the series, and a read through a detached handle
// resolves its name again.
package metrics

import (
	"fmt"
	"math"
	"slices"
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

// numStripes is the lock-stripe fan-out. Power of two so the stripe index
// is a mask. 64 stripes keep the collision probability negligible for the
// few hundred goroutines a simulated fleet runs.
const numStripes = 64

// Store holds named time series with a shared retention horizon.
// It is safe for concurrent use.
type Store struct {
	clock    simclock.Clock
	retNanos int64 // 0 keeps everything
	dropped  atomic.Uint64

	// createMu serialises registrations, so that a Row's names are
	// checked and inserted as one step; lookups take only a stripe's read
	// lock.
	createMu sync.Mutex
	stripes  [numStripes]seriesStripe
}

type seriesStripe struct {
	mu     sync.RWMutex
	series map[string]*Series
}

// Row is a handle to several series recorded together: the columns of one
// ring of [at, v0 … vk-1] rows. Writers that report k values per interval
// obtain it once via Store.Row and append all k with one RecordAt.
type Row struct {
	store *Store
	cols  []Series // fixed at registration; a row is len(cols)+1 words

	mu   sync.Mutex
	buf  []uint64 // (mask+1) rows of [at, values...]; values as IEEE 754 bits
	mask int      // ring capacity in rows, minus one; -1 before the first append
	head int      // ring index of the oldest live row
	n    int      // live row count, ascending by at
}

// Series is a handle to one named series: one column of a Row (its only
// column, unless it was registered through Store.Row). A handle stays
// usable forever. Once the series is Deleted from the store, writes
// through an old handle land in the detached ring, invisible to every
// reader, and reads through it resolve the name again — they see whatever
// series holds the name now, never the deleted one's points. A nil *Series
// reads as a series without points.
type Series struct {
	row      *Row
	col      int
	name     string
	detached atomic.Bool
}

// NewStore returns a Store that timestamps observations with clock and
// retains at least retention of history per series. A non-positive
// retention keeps everything.
func NewStore(clock simclock.Clock, retention time.Duration) *Store {
	s := &Store{clock: clock}
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

// Lookup returns the named series, or nil if there is none: the handle a
// reader holds to skip the name lookup on later reads.
func (s *Store) Lookup(name string) *Series {
	st := s.stripeFor(name)
	st.mu.RLock()
	sr := st.series[name]
	st.mu.RUnlock()
	return sr
}

// Handle returns the named series, creating it if needed.
func (s *Store) Handle(name string) *Series {
	if sr := s.Lookup(name); sr != nil {
		return sr
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if sr := s.Lookup(name); sr != nil {
		return sr
	}
	return &s.register([]string{name}).cols[0]
}

// Row returns the row whose columns are the named series, in order,
// creating it if none of the names is registered. Names that are already
// registered any other way — as plain series, or as columns of another row
// — are a programming error: a writer's shape does not change.
func (s *Store) Row(names ...string) *Row {
	if len(names) == 0 {
		panic("metrics: Row needs at least one name")
	}
	if r := s.rowOf(names); r != nil {
		return r
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if r := s.rowOf(names); r != nil {
		return r
	}
	for i, name := range names {
		if s.Lookup(name) != nil || slices.Contains(names[:i], name) {
			panic(fmt.Sprintf("metrics: Row%q: %q is already registered", names, name))
		}
	}
	return s.register(names)
}

// rowOf returns the registered row whose columns are exactly names, or nil.
func (s *Store) rowOf(names []string) *Row {
	first := s.Lookup(names[0])
	if first == nil || first.col != 0 || len(first.row.cols) != len(names) {
		return nil
	}
	for i := range names {
		// A deleted column keeps its place in the row but not its name.
		if c := &first.row.cols[i]; c.name != names[i] || c.detached.Load() {
			return nil
		}
	}
	return first.row
}

// register creates the row of the given unregistered names. Caller holds
// createMu.
func (s *Store) register(names []string) *Row {
	r := &Row{store: s, cols: make([]Series, len(names)), mask: -1}
	for i, name := range names {
		r.cols[i].row, r.cols[i].col, r.cols[i].name = r, i, name
	}
	// Published only once whole: whoever finds one column may read them all.
	for i, name := range names {
		st := s.stripeFor(name)
		st.mu.Lock()
		st.series[name] = &r.cols[i]
		st.mu.Unlock()
	}
	return r
}

// Record appends value to the named series at the current clock time.
func (s *Store) Record(name string, value float64) {
	s.RecordAt(name, s.clock.Now(), value)
}

// RecordAt appends value at an explicit timestamp. Out-of-order points
// (older than the series tail) are dropped and counted (see Dropped):
// Turbine's reporters are monotonic, and a deterministic store is worth
// more than a sorted insert.
func (s *Store) RecordAt(name string, at time.Time, value float64) {
	s.Handle(name).RecordAt(at, value)
}

// RecordAt appends value at an explicit timestamp, with the same
// out-of-order drop rule as Store.RecordAt. The series must be a row of
// its own: the columns of a wider Row are appended together, through it.
func (sr *Series) RecordAt(at time.Time, value float64) {
	sr.row.RecordAt(at, value)
}

// RecordAt appends one row: a value per column, in the order the names
// were given to Store.Row, all at one timestamp. A row older than the tail
// is dropped whole and counted once per value.
func (r *Row) RecordAt(at time.Time, values ...float64) {
	if len(values) != len(r.cols) {
		panic(fmt.Sprintf("metrics: %d values appended to the %d-column row of %q", len(values), len(r.cols), r.cols[0].name))
	}
	atN := at.UnixNano()
	r.mu.Lock()
	if r.n > 0 && atN < r.at(r.n-1) {
		r.mu.Unlock()
		r.store.dropped.Add(uint64(len(values)))
		return
	}
	if ret := r.store.retNanos; ret > 0 {
		// Expire from the head — usually one integer compare. Each row is
		// examined once on its way out, so trimming stays amortized O(1)
		// per append, and the vacated slots are reused in place by the
		// advancing ring: there is no compaction pass to pay, ever.
		cutoff := atN - ret
		for r.n > 0 && r.at(0) < cutoff {
			r.head = (r.head + 1) & r.mask
			r.n--
		}
	}
	if r.n == r.mask+1 {
		r.grow()
	}
	slot := r.buf[r.word(r.n):][:len(values)+1]
	slot[0] = uint64(atN)
	for i, v := range values {
		slot[i+1] = math.Float64bits(v)
	}
	r.n++
	r.mu.Unlock()
}

// grow doubles the ring (8 rows minimum), unwrapping the live rows to the
// front of the new buffer. This is the only copy a row ever performs, and
// only while its live count is still climbing toward the retention
// window; at steady state expiry frees a slot for every append and the
// ring never reallocates.
func (r *Row) grow() {
	stride := len(r.cols) + 1
	rows := max(2*(r.mask+1), 8)
	nb := make([]uint64, rows*stride)
	m := copy(nb, r.buf[r.head*stride:])
	copy(nb[m:], r.buf[:r.head*stride])
	r.buf, r.mask, r.head = nb, rows-1, 0
}

// word returns the index in buf of the first word — the timestamp — of the
// i-th row from the head, 0 being the oldest live row and n the slot the
// next append fills. Caller holds r.mu.
func (r *Row) word(i int) int {
	return ((r.head + i) & r.mask) * (len(r.cols) + 1)
}

// at returns the timestamp of the i-th live row. Caller holds r.mu and
// guarantees 0 <= i < r.n, as for value.
func (r *Row) at(i int) int64 { return int64(r.buf[r.word(i)]) }

// value returns column col of the i-th live row.
func (r *Row) value(i, col int) float64 {
	return math.Float64frombits(r.buf[r.word(i)+1+col])
}

// Dropped reports how many points have been silently discarded by the
// out-of-order guard since the store was created. A growing value means a
// reporter is emitting non-monotonic timestamps — a bug that would
// otherwise be invisible.
func (s *Store) Dropped() uint64 { return s.dropped.Load() }

// firstAtOrAfter returns the smallest index i <= limit such that the live
// rows in [i, limit) all have at >= key. It gallops back from limit before
// it bisects, so a key near the tail — the start of a trailing window —
// costs a few probes in the rows just written, and any key O(log n).
// Caller holds r.mu and guarantees limit <= r.n.
func (r *Row) firstAtOrAfter(limit int, key int64) int {
	lo, hi := 0, limit
	for step := 1; hi > 0; step <<= 1 {
		probe := max(limit-step, 0)
		if r.at(probe) < key {
			lo = probe + 1
			break
		}
		hi = probe
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.at(mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// bounds returns the half-open logical index range [lo, hi), in [0, n),
// of live rows with fromN <= at <= toN. Caller holds r.mu.
func (r *Row) bounds(fromN, toN int64) (int, int) {
	hi := r.n
	if toN < math.MaxInt64 {
		hi = r.firstAtOrAfter(r.n, toN+1)
	}
	return r.firstAtOrAfter(hi, fromN), hi
}

// Live returns the series a read through sr sees: sr itself, or, once sr
// has been Deleted, whatever series holds its name now (nil if none). A
// reader that keeps state derived from a series' points compares Live
// results between reads to notice that the name changed hands.
func (sr *Series) Live() *Series {
	for sr != nil && sr.detached.Load() {
		sr = sr.row.store.Lookup(sr.name)
	}
	return sr
}

// RangeFold calls fn for every point with from <= At <= to, in ascending
// time order, without copying. fn returning false stops the fold early.
// It returns false if the fold was stopped, true otherwise (including an
// empty range). fn runs under the row's lock: it must be fast and must
// not call back into the store.
func (s *Store) RangeFold(name string, from, to time.Time, fn func(Point) bool) bool {
	sr := s.Lookup(name)
	if sr == nil {
		return true
	}
	r := sr.row
	r.mu.Lock()
	defer r.mu.Unlock()
	lo, hi := r.bounds(from.UnixNano(), to.UnixNano())
	for i := lo; i < hi; i++ {
		if !fn(Point{At: time.Unix(0, r.at(i)).UTC(), Value: r.value(i, sr.col)}) {
			return false
		}
	}
	return true
}

// A Cursor is a read position in a series: just past the first Seen points
// stamped At (unix nanoseconds). Points arrive in time order and may share
// a timestamp, so the count is what makes the position exact;
// Cursor{At: t} stands before every point stamped t or later.
type Cursor struct {
	At   int64
	Seen int
}

// FoldSince calls fn, in ascending time order, for every point of sr after
// cur that is stamped no later than to, and returns the cursor past the
// last point visited (cur itself if none was) and the timestamp of the
// oldest point the series still retains (math.MaxInt64 if none): a reader
// fed incrementally drops what it kept from before that. It reads sr
// itself, detached or not — see Live. fn runs under the row's lock: it must
// be fast and must not call back into the store.
func (sr *Series) FoldSince(cur Cursor, to time.Time, fn func(at int64, v float64)) (Cursor, int64) {
	r := sr.row
	r.mu.Lock()
	defer r.mu.Unlock()
	oldest := int64(math.MaxInt64)
	if r.n > 0 {
		oldest = r.at(0)
	}
	hi := r.n
	if toN := to.UnixNano(); toN < math.MaxInt64 {
		hi = r.firstAtOrAfter(r.n, toN+1)
	}
	i := r.firstAtOrAfter(hi, cur.At)
	// Retention expires every point of one timestamp together, so the
	// points at cur.At still retained are exactly the ones seen, or none.
	for seen := cur.Seen; seen > 0 && i < hi && r.at(i) == cur.At; seen-- {
		i++
	}
	for ; i < hi; i++ {
		at := r.at(i)
		if at == cur.At {
			cur.Seen++
		} else {
			cur = Cursor{At: at, Seen: 1}
		}
		fn(at, r.value(i, sr.col))
	}
	return cur, oldest
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
// aggregates in one pass under the row's lock, allocating nothing. The
// accumulation order is ascending time.
func (sr *Series) RangeAgg(from, to time.Time) Agg {
	var a Agg
	if sr = sr.Live(); sr == nil {
		return a
	}
	r := sr.row
	r.mu.Lock()
	defer r.mu.Unlock()
	lo, hi := r.bounds(from.UnixNano(), to.UnixNano())
	for i := lo; i < hi; i++ {
		a.add(r.value(i, sr.col))
	}
	return a
}

// add folds the next point, in ascending time order, into a.
func (a *Agg) add(v float64) {
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

// WindowAggs folds the trailing window (measured back from the current
// clock time) of every column into aggs, one Agg per column in the order
// the names were given to Store.Row, in one pass under the row's lock. Each
// column accumulates in ascending time order, so aggs[i] is bit-identical
// to Store.WindowAgg of column i. A column deleted from the store folds
// to the zero Agg.
func (r *Row) WindowAggs(window time.Duration, aggs []Agg) {
	if len(aggs) != len(r.cols) {
		panic(fmt.Sprintf("metrics: %d aggregates for the %d-column row of %q", len(aggs), len(r.cols), r.cols[0].name))
	}
	clear(aggs)
	now := r.store.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	lo, hi := r.bounds(now.Add(-window).UnixNano(), now.UnixNano())
	for i := lo; i < hi; i++ {
		for c := range aggs {
			aggs[c].add(r.value(i, c))
		}
	}
	for c := range aggs {
		if r.cols[c].detached.Load() {
			aggs[c] = Agg{}
		}
	}
}

// RangeAgg is Series.RangeAgg by name; a missing series folds to the zero
// Agg.
func (s *Store) RangeAgg(name string, from, to time.Time) Agg {
	return s.Lookup(name).RangeAgg(from, to)
}

// WindowAgg folds the named series' trailing window, measured back from
// the current clock time, into streaming aggregates, allocation-free.
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

// Delete removes the named series and detaches its handles: writes through
// them are no longer visible to anyone, and reads through them see the
// name's next holder. Deleting one column of a wider Row leaves the others
// as they are.
func (s *Store) Delete(name string) {
	st := s.stripeFor(name)
	st.mu.Lock()
	if sr := st.series[name]; sr != nil {
		sr.detached.Store(true)
		delete(st.series, name)
	}
	st.mu.Unlock()
}

// Len reports the number of live (unexpired) points retained in the
// named series.
func (s *Store) Len(name string) int {
	sr := s.Lookup(name)
	if sr == nil {
		return 0
	}
	sr.row.mu.Lock()
	defer sr.row.mu.Unlock()
	return sr.row.n
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
