package metrics

// Row tests: a Row is the store's one storage shape, so what is pinned here
// is that recording k values together is indistinguishable, to every
// reader, from recording them into k series of their own; that the
// tail-first bounds search finds what two plain binary searches find; and
// that a row is appended whole or not at all under concurrent reads.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestRowMatchesIndependentSeries feeds one store a k-column row and
// another k one-column series the same values, through random appends
// (in order, out of order, and far enough ahead to expire everything),
// per-name deletes, by-name re-creations of a deleted column, and
// whole-row re-registrations, and demands that every read agrees to the
// bit after every step.
func TestRowMatchesIndependentSeries(t *testing.T) {
	const retention = 40 * time.Minute
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		names := make([]string, k)
		for i := range names {
			names[i] = fmt.Sprintf("job/j/c%d", i)
		}
		rows, clkR := newTestStore(retention)
		cols, clkC := newTestStore(retention)
		row := rows.Row(names...)
		handles := make([]*Series, k)
		for i, name := range names {
			handles[i] = cols.Handle(name)
		}
		// deleted[i]: the name no longer belongs to the row (or to the
		// handle): by-name appends are legal, and create a series of its own.
		deleted := make([]bool, k)

		at := epoch
		values := make([]float64, k)
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(20); {
			case op < 12: // the next minute's row
				at = at.Add(time.Duration(1+rng.Intn(90)) * time.Second)
			case op < 14: // out of order: dropped, k values at a time
				at = at.Add(-time.Duration(1+rng.Intn(300)) * time.Second)
			case op == 14: // a gap longer than the retention: everything expires
				at = at.Add(retention + time.Duration(rng.Intn(600))*time.Second)
			case op == 15:
				i := rng.Intn(k)
				rows.Delete(names[i])
				cols.Delete(names[i])
				deleted[i] = true
				continue
			case op < 18: // a deleted name re-created by a by-name append
				i := rng.Intn(k)
				if !deleted[i] {
					continue
				}
				v := rng.NormFloat64() * 1e6
				rows.RecordAt(names[i], at, v)
				cols.RecordAt(names[i], at, v)
				continue
			default: // the job is removed and comes back under its name
				if rng.Intn(3) > 0 {
					continue
				}
				for i, name := range names {
					rows.Delete(name)
					cols.Delete(name)
					deleted[i] = false
				}
				row = rows.Row(names...)
				for i, name := range names {
					handles[i] = cols.Handle(name)
				}
				continue
			}
			for i := range values {
				values[i] = rng.NormFloat64() * 1e6
			}
			row.RecordAt(at, values...)
			for i, h := range handles {
				h.RecordAt(at, values[i])
			}
			if now := clkR.Now(); at.After(now) {
				clkR.RunFor(at.Sub(now))
				clkC.RunFor(at.Sub(now))
			}

			if got, want := rows.Dropped(), cols.Dropped(); got != want {
				t.Fatalf("seed %d step %d: Dropped %d, independent series %d", seed, step, got, want)
			}
			if got, want := rows.Names(), cols.Names(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Names %v, independent series %v", seed, step, got, want)
			}
			from := at.Add(-time.Duration(rng.Intn(3600)) * time.Second)
			to := from.Add(time.Duration(rng.Intn(3600)) * time.Second)
			window := time.Duration(rng.Intn(3600)) * time.Second
			for _, name := range names {
				if got, want := rows.Len(name), cols.Len(name); got != want {
					t.Fatalf("seed %d step %d: Len(%s) %d, independent series %d", seed, step, name, got, want)
				}
				if got, want := rows.RangeAgg(name, from, to), cols.RangeAgg(name, from, to); !sameAgg(got, want) {
					t.Fatalf("seed %d step %d: RangeAgg(%s) %+v, independent series %+v", seed, step, name, got, want)
				}
				if got, want := rows.WindowAgg(name, window), cols.WindowAgg(name, window); !sameAgg(got, want) {
					t.Fatalf("seed %d step %d: WindowAgg(%s) %+v, independent series %+v", seed, step, name, got, want)
				}
				got, want := pointsIn(rows, name, from, to), pointsIn(cols, name, from, to)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: RangeFold(%s) saw %d points, independent series %d", seed, step, name, len(got), len(want))
				}
				for j := range got {
					if !got[j].At.Equal(want[j].At) || math.Float64bits(got[j].Value) != math.Float64bits(want[j].Value) {
						t.Fatalf("seed %d step %d: RangeFold(%s) point %d = %+v, independent series %+v", seed, step, name, j, got[j], want[j])
					}
				}
			}
		}
	}
}

func sameAgg(a, b Agg) bool {
	return a.Count == b.Count &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// plainBounds is the pair of whole-ring binary searches that Row.bounds
// replaced, kept as its reference.
func plainBounds(r *Row, fromN, toN int64) (int, int) {
	lo, hi := 0, r.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.at(mid) < fromN {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	first := lo
	lo, hi = first, r.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.at(mid) <= toN {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return first, lo
}

// TestGallopingBoundsMatchPlainBinarySearch: over random rings — empty,
// unwrapped, wrapped by retention, with runs of equal timestamps — and
// random ranges, including empty and inverted ones and ranges wholly
// before or after the data, the tail-first search selects exactly the rows
// the two plain binary searches select.
func TestGallopingBoundsMatchPlainBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wrapped := 0
	for ring := 0; ring < 300; ring++ {
		retention := time.Duration(0)
		if ring%2 == 1 {
			retention = time.Duration(1+rng.Intn(200)) * time.Second
		}
		s, _ := newTestStore(retention)
		r := s.Row("a", "b")
		at := epoch
		for i, n := 0, rng.Intn(400); i < n; i++ {
			at = at.Add(time.Duration(rng.Intn(4)) * time.Second) // 0: an equal timestamp
			r.RecordAt(at, float64(i), -float64(i))
		}
		if r.head != 0 {
			wrapped++
		}
		// Whole seconds, like the rows: a bound often is a row's timestamp.
		span := int64(at.Sub(epoch)/time.Second) + 20
		for q := 0; q < 200; q++ {
			from := epoch.Add(time.Duration(rng.Int63n(span)-10) * time.Second).UnixNano()
			to := epoch.Add(time.Duration(rng.Int63n(span)-10) * time.Second).UnixNano()
			switch q % 10 {
			case 0:
				to = from // a single instant
			case 1:
				from, to = math.MinInt64, math.MaxInt64
			case 2:
				to = math.MaxInt64
			case 3:
				from, to = at.UnixNano()+1, at.UnixNano()+int64(time.Hour) // wholly after
			case 4:
				from, to = epoch.UnixNano()-int64(time.Hour), epoch.UnixNano()-1 // wholly before
			}
			r.mu.Lock()
			lo, hi := r.bounds(from, to)
			wantLo, wantHi := plainBounds(r, from, to)
			r.mu.Unlock()
			if lo > hi || hi > r.n {
				t.Fatalf("ring %d (n %d, head %d): bounds(%d, %d) = [%d, %d)", ring, r.n, r.head, from, to, lo, hi)
			}
			// An empty selection has no one spelling: an inverted range is
			// empty at its start for one search and at its end for the other.
			if empty, wantEmpty := lo == hi, wantLo == wantHi; empty != wantEmpty || !empty && (lo != wantLo || hi != wantHi) {
				t.Fatalf("ring %d (n %d, head %d): bounds(%d, %d) = [%d, %d), plain binary searches [%d, %d)",
					ring, r.n, r.head, from, to, lo, hi, wantLo, wantHi)
			}
		}
	}
	if wrapped < 50 {
		t.Fatalf("only %d of 300 rings wrapped: the masked index was hardly exercised", wrapped)
	}
}

// TestRowAppendsWholeUnderConcurrentReads: readers folding the columns of
// a row, by name and through handles, while it is appended to must see
// every row whole — a column's aggregate over all time is that of the
// first Count rows, never a row's timestamp without its value. Run under
// -race this also covers the row lock against the stripe locks.
func TestRowAppendsWholeUnderConcurrentReads(t *testing.T) {
	s, _ := newTestStore(0)
	names := []string{"shard/cpu", "shard/mem", "shard/disk", "shard/net"}
	row := s.Row(names...)
	const rows = 4000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rows; i++ {
			v := float64(i)
			row.RecordAt(epoch.Add(time.Duration(i)*time.Second), v, 2*v, 3*v, 4*v)
		}
	}()
	from, to := epoch, epoch.Add(rows*time.Second)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(col int) {
			defer wg.Done()
			h := s.Handle(names[col]) // a column's handle, for reading
			for done := false; !done; {
				a := h.RangeAgg(from, to)
				if col%2 == 1 {
					a = s.RangeAgg(names[col], from, to)
				}
				m := float64(a.Count)
				if want := float64(col+1) * m * (m - 1) / 2; a.Sum != want {
					t.Errorf("column %d: %d rows sum to %v, want %v", col, a.Count, a.Sum, want)
					return
				}
				done = a.Count == rows
			}
		}(g)
	}
	wg.Wait()
}

// TestRowRegistration: Row is idempotent for the same names in the same
// order, and a name registered any other way is refused loudly — a second
// writer silently sharing, or replacing, a series is how points end up
// under the wrong name.
func TestRowRegistration(t *testing.T) {
	s, _ := newTestStore(0)
	r := s.Row("a", "b", "c")
	if s.Row("a", "b", "c") != r {
		t.Fatal("Row returned a different row for the same names")
	}
	if got := s.Names(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Fatalf("Names = %v", got)
	}
	r.RecordAt(epoch, 1, 2, 3)
	if a := s.Handle("b").RangeAgg(epoch, epoch); a.Count != 1 || a.Sum != 2 {
		t.Fatalf("column b through its handle: %+v", a)
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("a row over another row's column", func() { s.Row("c", "d") })
	mustPanic("the same names in another order", func() { s.Row("b", "a", "c") })
	mustPanic("a row naming a column twice", func() { s.Row("x", "x") })
	mustPanic("two values for three columns", func() { r.RecordAt(epoch, 1, 2) })
	mustPanic("one column of a row appended alone", func() { s.RecordAt("a", epoch, 1) })
	s.Handle("plain")
	mustPanic("a row over a plain series", func() { s.Row("plain", "other") })
	if got := s.Names(); !slices.Equal(got, []string{"a", "b", "c", "plain"}) {
		t.Fatalf("a refused registration left names behind: %v", got)
	}
}

// TestDetachedHandleReadsResolveByName: a reader that keeps a handle across
// the series' deletion is served the name's next holder, or nothing, but
// never the deleted series' points.
func TestDetachedHandleReadsResolveByName(t *testing.T) {
	s, clk := newTestStore(0)
	old := s.Row("in", "out")
	old.RecordAt(epoch, 100, 200)
	h := s.Lookup("in")
	if a := h.RangeAgg(epoch, epoch); a.Count != 1 || a.Max != 100 {
		t.Fatalf("before the delete: %+v", a)
	}
	s.Delete("in")
	s.Delete("out")
	old.RecordAt(epoch.Add(time.Second), 101, 201) // the writer has not heard yet
	if a := h.RangeAgg(epoch, epoch.Add(time.Hour)); a.Count != 0 {
		t.Fatalf("a deleted series still reads %+v through its handle", a)
	}
	if s.Lookup("in") != nil {
		t.Fatal("Lookup finds a deleted name")
	}
	clk.RunFor(time.Minute)
	s.Row("in", "out").RecordAt(clk.Now(), 7, 8)
	if a := h.RangeAgg(epoch, clk.Now()); a.Count != 1 || a.Max != 7 {
		t.Fatalf("the stale handle reads %+v, want the new series' single point 7", a)
	}
	if h.Live() != s.Lookup("in") {
		t.Fatal("the stale handle's Live is not the name's new holder")
	}
	var none *Series
	if a := none.RangeAgg(epoch, clk.Now()); a.Count != 0 || none.Live() != nil {
		t.Fatalf("a nil handle reads %+v", a)
	}
}

// TestRowConcurrentRegistration: writers racing to register the same names
// all get the one row, whole.
func TestRowConcurrentRegistration(t *testing.T) {
	s, _ := newTestStore(0)
	names := []string{"a", "b", "c", "d"}
	got := make([]*Row, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = s.Row(names...)
			got[g].RecordAt(epoch, 1, 2, 3, 4)
		}(g)
	}
	wg.Wait()
	for g, r := range got {
		if r != got[0] {
			t.Fatalf("goroutine %d registered a row of its own", g)
		}
	}
	if n := s.Len("d"); n != len(got) {
		t.Fatalf("%d rows recorded, want %d", n, len(got))
	}
}

// TestWindowAggsMatchPerNameWindowAgg: folding every column of a row's
// trailing window in one pass gives each column exactly what a by-name
// WindowAgg gives it, to the bit — over random rows, windows that hold
// nothing (a gap longer than the window, a zero window between rows),
// dropped out-of-order rows, and deleted columns, which fold to nothing
// either way.
func TestWindowAggsMatchPerNameWindowAgg(t *testing.T) {
	windows := []time.Duration{0, time.Second, time.Minute, 10 * time.Minute, time.Hour}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		names := make([]string, k)
		for i := range names {
			names[i] = fmt.Sprintf("tm.t.shard.%d.c%d", seed, i)
		}
		s, clk := newTestStore(30 * time.Minute)
		row := s.Row(names...)
		values := make([]float64, k)
		aggs := make([]Agg, k)
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(20); {
			case op < 10:
				clk.RunFor(time.Duration(rng.Intn(90)) * time.Second)
			case op == 10:
				clk.RunFor(time.Duration(1+rng.Intn(3)) * time.Hour)
			case op == 11:
				s.Delete(names[rng.Intn(k)])
			}
			at := clk.Now()
			if rng.Intn(8) == 0 {
				at = at.Add(-time.Duration(rng.Intn(300)) * time.Second) // dropped unless still at or past the tail
			}
			for c := range values {
				values[c] = rng.NormFloat64() * 100
			}
			row.RecordAt(at, values...)

			w := windows[rng.Intn(len(windows))]
			row.WindowAggs(w, aggs)
			for c, name := range names {
				if want := s.WindowAgg(name, w); !sameAgg(aggs[c], want) {
					t.Fatalf("seed %d step %d, column %d, window %v: WindowAggs %+v, WindowAgg %+v", seed, step, c, w, aggs[c], want)
				}
			}
		}
	}
}

// TestFoldSinceVisitsEachPointOnce: a reader that folds from its cursor
// again and again, up to a bound that moves forward but may stop short of
// the tail, sees every point it can — each once, in order — even when
// more points arrive later under the timestamp its cursor stands on; and
// it skips exactly the points that expired before it got to them. Each
// point's value is its arrival number, so the model is a list of numbers.
func TestFoldSinceVisitsEachPointOnce(t *testing.T) {
	const retention = 20 * time.Minute
	type point struct {
		at int64
		id float64
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, clk := newTestStore(retention)
		sr := s.Handle("j")
		var model []point // the points the store retains
		next := 0.0
		var cur Cursor
		last := -1.0 // the last id visited
		to := epoch
		for step := 0; step < 500; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				clk.RunFor(time.Duration(rng.Intn(3)) * time.Minute)
			case op == 4:
				clk.RunFor(retention + time.Duration(rng.Intn(10))*time.Minute)
			}
			for n := rng.Intn(3); n > 0; n-- {
				at := clk.Now().Add(-time.Duration(rng.Intn(2)) * time.Minute)
				sr.RecordAt(at, next)
				atN := at.UnixNano()
				if len(model) == 0 || atN >= model[len(model)-1].at {
					model = append(model, point{atN, next})
					for len(model) > 0 && model[0].at < atN-retention.Nanoseconds() {
						model = model[1:]
					}
				}
				next++
			}
			if rng.Intn(3) == 0 {
				to = clk.Now().Add(-time.Duration(rng.Intn(2)) * time.Minute)
			}
			var want []float64
			for _, p := range model {
				if p.id > last && p.at <= to.UnixNano() {
					want = append(want, p.id)
				}
			}
			var got []float64
			var oldest int64
			cur, oldest = sr.FoldSince(cur, to, func(at int64, v float64) { got = append(got, v) })
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: folded %v since the cursor, want %v", seed, step, got, want)
			}
			if len(got) > 0 {
				last = got[len(got)-1]
			}
			wantOldest := int64(math.MaxInt64)
			if len(model) > 0 {
				wantOldest = model[0].at
			}
			if oldest != wantOldest {
				t.Fatalf("seed %d step %d: oldest retained %d, want %d", seed, step, oldest, wantOldest)
			}
		}
	}
}
