package metrics

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func newTestStore(retention time.Duration) (*Store, *simclock.Sim) {
	clk := simclock.NewSim(epoch)
	return NewStore(clk, retention), clk
}

// pointsIn copies the points with from <= At <= to out of the store.
func pointsIn(s *Store, name string, from, to time.Time) []Point {
	var pts []Point
	s.RangeFold(name, from, to, func(p Point) bool {
		pts = append(pts, p)
		return true
	})
	return pts
}

// latest reads the newest value of the named series.
func latest(s *Store, name string) (v float64, ok bool) {
	s.RangeFold(name, time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64), func(p Point) bool {
		v, ok = p.Value, true
		return true
	})
	return v, ok
}

func TestLatestOnEmptySeries(t *testing.T) {
	s, _ := newTestStore(0)
	if _, ok := latest(s, "missing"); ok {
		t.Fatal("Latest on missing series reported ok")
	}
}

func TestRecordAndLatest(t *testing.T) {
	s, clk := newTestStore(0)
	s.Record("cpu", 1.5)
	clk.RunFor(time.Minute)
	s.Record("cpu", 2.5)
	v, ok := latest(s, "cpu")
	if !ok || v != 2.5 {
		t.Fatalf("Latest = %v,%v, want 2.5,true", v, ok)
	}
	pts := pointsIn(s, "cpu", epoch, clk.Now())
	if len(pts) != 2 || !pts[1].At.Equal(epoch.Add(time.Minute)) || pts[1].Value != 2.5 {
		t.Fatalf("points = %v, want the latest at %v", pts, epoch.Add(time.Minute))
	}
}

func TestOutOfOrderPointsDropped(t *testing.T) {
	s, _ := newTestStore(0)
	s.RecordAt("x", epoch.Add(time.Hour), 1)
	s.RecordAt("x", epoch, 99) // older than tail: dropped
	if s.Len("x") != 1 {
		t.Fatalf("Len = %d, want 1", s.Len("x"))
	}
	v, _ := latest(s, "x")
	if v != 1 {
		t.Fatalf("Latest = %v, want 1", v)
	}
}

func TestEqualTimestampAppends(t *testing.T) {
	s, _ := newTestStore(0)
	s.RecordAt("x", epoch, 1)
	s.RecordAt("x", epoch, 2) // same timestamp: kept
	if s.Len("x") != 2 {
		t.Fatalf("Len = %d, want 2", s.Len("x"))
	}
}

func TestRangeQuery(t *testing.T) {
	s, _ := newTestStore(0)
	for i := 0; i < 10; i++ {
		s.RecordAt("x", epoch.Add(time.Duration(i)*time.Minute), float64(i))
	}
	pts := pointsIn(s, "x", epoch.Add(2*time.Minute), epoch.Add(5*time.Minute))
	if len(pts) != 4 {
		t.Fatalf("Range returned %d points, want 4", len(pts))
	}
	if pts[0].Value != 2 || pts[3].Value != 5 {
		t.Fatalf("Range bounds wrong: %v..%v", pts[0].Value, pts[3].Value)
	}
}

func TestRangeOnMissingSeries(t *testing.T) {
	s, _ := newTestStore(0)
	if pts := pointsIn(s, "nope", epoch, epoch.Add(time.Hour)); pts != nil {
		t.Fatalf("Range on missing series = %v, want nil", pts)
	}
}

func TestWindowAggregates(t *testing.T) {
	s, clk := newTestStore(0)
	for i := 0; i < 10; i++ {
		s.Record("x", float64(i))
		clk.RunFor(time.Minute)
	}
	// Clock is now epoch+10m; points at 0m..9m with values 0..9.
	avg, ok := s.WindowAvg("x", 5*time.Minute)
	if !ok {
		t.Fatal("WindowAvg not ok")
	}
	// Window [5m,10m] covers values 5..9 → mean 7.
	if avg != 7 {
		t.Fatalf("WindowAvg = %v, want 7", avg)
	}
	if a := s.WindowAgg("x", 5*time.Minute); a.Count != 5 || a.Min != 5 || a.Max != 9 || a.Sum != 35 {
		t.Fatalf("WindowAgg = %+v, want 5 points, min 5, max 9, sum 35", a)
	}
}

func TestWindowOnEmptyReturnsNotOK(t *testing.T) {
	s, _ := newTestStore(0)
	if _, ok := s.WindowAvg("x", time.Minute); ok {
		t.Fatal("WindowAvg on empty series reported ok")
	}
}

func TestRetentionTrims(t *testing.T) {
	s, clk := newTestStore(time.Hour)
	for i := 0; i < 240; i++ { // 4 hours of minutes
		s.Record("x", float64(i))
		clk.RunFor(time.Minute)
	}
	// Retention is 1h; lazy compaction keeps at most ~2x the live window.
	if n := s.Len("x"); n > 130 {
		t.Fatalf("retained %d points, want <= ~130 after trimming", n)
	}
	// The most recent hour must be fully intact.
	pts := pointsIn(s, "x", clk.Now().Add(-time.Hour), clk.Now())
	if len(pts) < 60 {
		t.Fatalf("live window has %d points, want >= 60", len(pts))
	}
}

func TestNamesAndDelete(t *testing.T) {
	s, _ := newTestStore(0)
	s.Record("b", 1)
	s.Record("a", 1)
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v, want [a b]", names)
	}
	s.Delete("a")
	if len(s.Names()) != 1 {
		t.Fatalf("after Delete, Names = %v", s.Names())
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if m := Mean([]float64{2, 4, 6}); m != 4 {
		t.Fatalf("Mean = %v, want 4", m)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("StdDev of single value != 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	}
	for _, c := range cases {
		if got := Percentile(vs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil) != 0")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	vs := []float64{3, 1, 2}
	Percentile(vs, 50)
	if vs[0] != 3 || vs[1] != 1 || vs[2] != 2 {
		t.Fatalf("input mutated: %v", vs)
	}
}

// Property: for any value set, p0 <= p50 <= p100 and all within [min,max].
func TestPercentileOrderingProperty(t *testing.T) {
	f := func(vs []float64) bool {
		clean := vs[:0]
		for _, v := range vs {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		p0, p50, p100 := Percentile(clean, 0), Percentile(clean, 50), Percentile(clean, 100)
		return p0 <= p50 && p50 <= p100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Mean is always within [min, max] of its inputs.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(vs []float64) bool {
		clean := vs[:0]
		for _, v := range vs {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		lo, hi := Percentile(clean, 0), Percentile(clean, 100)
		return m >= lo-1e-6 && m <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Range never returns points outside [from, to], and successive
// points are non-decreasing in time.
func TestRangeInvariantProperty(t *testing.T) {
	f := func(offsets []uint16, fromMin, toMin uint16) bool {
		s, _ := newTestStore(0)
		at := epoch
		for i, off := range offsets {
			at = at.Add(time.Duration(off%60) * time.Second)
			s.RecordAt("x", at, float64(i))
		}
		from := epoch.Add(time.Duration(fromMin) * time.Second)
		to := epoch.Add(time.Duration(toMin) * time.Second)
		pts := pointsIn(s, "x", from, to)
		prev := time.Time{}
		for _, p := range pts {
			if p.At.Before(from) || p.At.After(to) {
				return false
			}
			if p.At.Before(prev) {
				return false
			}
			prev = p.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentRecordAndRead(t *testing.T) {
	s, _ := newTestStore(0)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			name := fmt.Sprintf("s%d", g)
			for i := 0; i < 1000; i++ {
				s.RecordAt(name, epoch.Add(time.Duration(i)*time.Second), float64(i))
				latest(s, name)
				pointsIn(s, name, epoch, epoch.Add(time.Hour))
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	for g := 0; g < 4; g++ {
		if n := s.Len(fmt.Sprintf("s%d", g)); n != 1000 {
			t.Fatalf("series s%d has %d points, want 1000", g, n)
		}
	}
}
