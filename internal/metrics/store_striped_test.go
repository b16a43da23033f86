package metrics

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// Overlapping-series concurrency: many goroutines hammer the SAME small
// set of series with RecordAt, Range, WindowAvg, RangeFold, and Handle
// while others create and read disjoint series. Run under -race this
// exercises the stripe RWMutex, the per-series mutex, and the
// double-checked Handle creation path together.
func TestConcurrentOverlappingSeries(t *testing.T) {
	s, _ := newTestStore(0)
	shared := []string{"hot0", "hot1", "hot2"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := shared[g%len(shared)]
			own := fmt.Sprintf("own%d", g)
			h := s.Handle(own)
			for i := 0; i < 500; i++ {
				at := epoch.Add(time.Duration(i) * time.Second)
				s.RecordAt(name, at, float64(i))
				h.RecordAt(at, float64(i))
				latest(s, name)
				pointsIn(s, name, epoch, epoch.Add(time.Hour))
				s.WindowAvg(name, time.Minute)
				s.RangeFold(name, epoch, epoch.Add(time.Hour), func(Point) bool { return true })
				s.RangeAgg(own, epoch, epoch.Add(time.Hour))
			}
		}()
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if n := s.Len(fmt.Sprintf("own%d", g)); n != 500 {
			t.Fatalf("own%d has %d points, want 500", g, n)
		}
	}
	// Each shared series was written by at least one goroutine; out-of-order
	// interleavings may be dropped, but live points + dropped must account
	// for every write.
	var live int
	for _, name := range shared {
		live += s.Len(name)
	}
	if total := uint64(live) + s.Dropped(); total != 8*500 {
		t.Fatalf("live(%d) + dropped(%d) = %d, want 4000", live, s.Dropped(), total)
	}
}

func TestDroppedCounter(t *testing.T) {
	s, _ := newTestStore(0)
	if s.Dropped() != 0 {
		t.Fatalf("fresh store Dropped = %d, want 0", s.Dropped())
	}
	s.RecordAt("x", epoch.Add(time.Hour), 1)
	s.RecordAt("x", epoch, 2)                     // out of order: dropped
	s.RecordAt("x", epoch.Add(30*time.Minute), 3) // still older than tail: dropped
	s.RecordAt("x", epoch.Add(time.Hour), 4)      // equal timestamp: kept
	if got := s.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	if n := s.Len("x"); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

// Retention edge: every point in the series is older than the cutoff once
// a much newer point lands. The series must report only the new point and
// Latest must see it.
func TestRetentionAllExpired(t *testing.T) {
	s, _ := newTestStore(time.Hour)
	for i := 0; i < 50; i++ {
		s.RecordAt("x", epoch.Add(time.Duration(i)*time.Minute), float64(i))
	}
	// One point a week later: everything before it is outside retention.
	s.RecordAt("x", epoch.Add(7*24*time.Hour), 999)
	if n := s.Len("x"); n != 1 {
		t.Fatalf("Len = %d, want 1 after full expiry", n)
	}
	if v, ok := latest(s, "x"); !ok || v != 999 {
		t.Fatalf("Latest = %v,%v, want 999,true", v, ok)
	}
	pts := pointsIn(s, "x", epoch, epoch.Add(8*24*time.Hour))
	if len(pts) != 1 || pts[0].Value != 999 {
		t.Fatalf("Range = %v, want the single surviving point", pts)
	}
}

// Retention edge: a single-point series never trims itself away.
func TestRetentionSinglePoint(t *testing.T) {
	s, _ := newTestStore(time.Minute)
	s.RecordAt("x", epoch, 42)
	if n := s.Len("x"); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	if v, ok := latest(s, "x"); !ok || v != 42 {
		t.Fatalf("Latest = %v,%v, want 42,true", v, ok)
	}
}

// Retention edge: interleave appends and expiries so the ring head
// advances mid-buffer, checking live points stay intact as slots are
// vacated and reused.
func TestRetentionTrimAtHalfBoundary(t *testing.T) {
	s, _ := newTestStore(10 * time.Second)
	// 4 points 1s apart.
	for i := 0; i < 4; i++ {
		s.RecordAt("x", epoch.Add(time.Duration(i)*time.Second), float64(i))
	}
	// A point at 12s expires 0s and 1s: 3 live points.
	s.RecordAt("x", epoch.Add(12*time.Second), 12)
	if n := s.Len("x"); n != 3 {
		t.Fatalf("after boundary append Len = %d, want 3", n)
	}
	// A point at 13s expires 2s too.
	s.RecordAt("x", epoch.Add(13*time.Second), 13)
	if n := s.Len("x"); n != 3 {
		t.Fatalf("after trim Len = %d, want 3", n)
	}
	pts := pointsIn(s, "x", epoch, epoch.Add(time.Minute))
	want := []float64{3, 12, 13}
	if len(pts) != len(want) {
		t.Fatalf("Range = %v, want values %v", pts, want)
	}
	for i, w := range want {
		if pts[i].Value != w {
			t.Fatalf("pts[%d].Value = %v, want %v", i, pts[i].Value, w)
		}
	}
}

// Equivalence: folding over a range must observe exactly the points
// recorded in it — same count, same order, bit-identical timestamps and
// values — and the window aggregates must equal the same accumulations
// over those points, byte for byte.
func TestFoldMatchesRangeByteForByte(t *testing.T) {
	s, clk := newTestStore(0)
	from := epoch.Add(7 * time.Minute)
	to := epoch.Add(83 * time.Minute)
	wfrom := epoch.Add(500*13*time.Second - 30*time.Minute)
	// Irregular values so float identity is meaningful. legacy and wlegacy
	// are what was recorded inside [from, to] and the last 30 minutes.
	var legacy, wlegacy []Point
	for i := 0; i < 500; i++ {
		p := Point{At: clk.Now(), Value: math.Sin(float64(i)) * 1e6 / 3}
		s.Record("x", p.Value)
		if !p.At.Before(from) && !p.At.After(to) {
			legacy = append(legacy, p)
		}
		if !p.At.Before(wfrom) {
			wlegacy = append(wlegacy, p)
		}
		clk.RunFor(13 * time.Second)
	}

	var folded []Point
	s.RangeFold("x", from, to, func(p Point) bool {
		folded = append(folded, p)
		return true
	})
	if len(folded) != len(legacy) {
		t.Fatalf("fold saw %d points, %d were recorded", len(folded), len(legacy))
	}
	for i := range legacy {
		if !legacy[i].At.Equal(folded[i].At) ||
			math.Float64bits(legacy[i].Value) != math.Float64bits(folded[i].Value) {
			t.Fatalf("point %d differs: fold %v@%v vs recorded %v@%v",
				i, folded[i].Value, folded[i].At, legacy[i].Value, legacy[i].At)
		}
	}

	// Aggregate equivalence: accumulate over the legacy copy in the same
	// order the fold does and demand bit-identical results.
	a := s.RangeAgg("x", from, to)
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	for _, p := range legacy {
		sum += p.Value
		if p.Value < min {
			min = p.Value
		}
		if p.Value > max {
			max = p.Value
		}
	}
	if a.Count != len(legacy) ||
		math.Float64bits(a.Sum) != math.Float64bits(sum) ||
		math.Float64bits(a.Min) != math.Float64bits(min) ||
		math.Float64bits(a.Max) != math.Float64bits(max) {
		t.Fatalf("RangeAgg %+v != legacy accumulation count=%d sum=%v min=%v max=%v",
			a, len(legacy), sum, min, max)
	}

	// Window aggregates route through the same fold.
	if want := clk.Now().Add(-30 * time.Minute); !wfrom.Equal(want) {
		t.Fatalf("window starts at %v, the test recorded from %v", want, wfrom)
	}
	wsum := 0.0
	for _, p := range wlegacy {
		wsum += p.Value
	}
	avg, ok := s.WindowAvg("x", 30*time.Minute)
	if !ok {
		t.Fatal("WindowAvg not ok")
	}
	if math.Float64bits(avg) != math.Float64bits(wsum/float64(len(wlegacy))) {
		t.Fatalf("WindowAvg = %v, legacy = %v", avg, wsum/float64(len(wlegacy)))
	}
}

func TestRangeFoldEarlyExit(t *testing.T) {
	s, _ := newTestStore(0)
	for i := 0; i < 10; i++ {
		s.RecordAt("x", epoch.Add(time.Duration(i)*time.Second), float64(i))
	}
	seen := 0
	completed := s.RangeFold("x", epoch, epoch.Add(time.Minute), func(p Point) bool {
		seen++
		return seen < 3
	})
	if completed || seen != 3 {
		t.Fatalf("early exit: completed=%v seen=%d, want false,3", completed, seen)
	}
	if !s.RangeFold("x", epoch, epoch.Add(time.Minute), func(Point) bool { return true }) {
		t.Fatal("full fold reported early exit")
	}
}

func TestHandleSurvivesAndDelete(t *testing.T) {
	s, _ := newTestStore(0)
	h := s.Handle("x")
	h.RecordAt(epoch, 1)
	if h2 := s.Handle("x"); h2 != h {
		t.Fatal("Handle returned a different series for the same name")
	}
	s.Delete("x")
	// An orphaned handle keeps working but its writes are invisible to the
	// store (a fresh series owns the name now).
	h.RecordAt(epoch, 2)
	if n := s.Len("x"); n != 0 {
		t.Fatalf("store sees %d points after Delete, want 0", n)
	}
}

func TestPercentileInPlace(t *testing.T) {
	vs := []float64{50, 15, 40, 35, 20}
	if got := PercentileInPlace(vs, 50); math.Abs(got-35) > 1e-9 {
		t.Fatalf("PercentileInPlace(50) = %v, want 35", got)
	}
	// The slice is now sorted — that's the contract.
	for i := 1; i < len(vs); i++ {
		if vs[i-1] > vs[i] {
			t.Fatalf("slice not sorted in place: %v", vs)
		}
	}
	// Repeated calls on the sorted slice agree with the copying version.
	for _, p := range []float64{0, 25, 50, 75, 100} {
		if PercentileInPlace(vs, p) != Percentile(vs, p) {
			t.Fatalf("PercentileInPlace(%v) != Percentile(%v)", p, p)
		}
	}
	if PercentileInPlace(nil, 50) != 0 {
		t.Fatal("PercentileInPlace(nil) != 0")
	}
}
