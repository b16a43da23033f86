package metrics

// Ring-buffer tests: the series layout is a power-of-two ring whose head
// chases the retention horizon, so correctness near wraparound and the
// no-allocation steady state are the two properties worth pinning.

import (
	"math/rand"
	"testing"
	"time"
)

// TestRingWraparoundEquivalence drives one series long enough for the
// ring to wrap many times, with deterministic jittered spacing so expiry
// counts vary per append, and checks every read (Len, Latest, Range,
// RangeAgg) against a naive reference implementation.
func TestRingWraparoundEquivalence(t *testing.T) {
	const retention = 100 * time.Second
	s, _ := newTestStore(retention)
	h := s.Handle("x")

	type refPoint struct {
		at time.Time
		v  float64
	}
	var ref []refPoint
	rng := rand.New(rand.NewSource(99))
	at := epoch
	for i := 0; i < 10_000; i++ {
		at = at.Add(time.Duration(500+rng.Intn(2000)) * time.Millisecond)
		v := float64(i)
		h.RecordAt(at, v)
		ref = append(ref, refPoint{at, v})
		cutoff := at.Add(-retention)
		for len(ref) > 0 && ref[0].at.Before(cutoff) {
			ref = ref[1:]
		}
		if i%379 != 0 {
			continue
		}
		if n := s.Len("x"); n != len(ref) {
			t.Fatalf("append %d: Len = %d, want %d", i, n, len(ref))
		}
		if v, ok := latest(s, "x"); !ok || v != ref[len(ref)-1].v {
			t.Fatalf("append %d: Latest = %v,%v, want %v", i, v, ok, ref[len(ref)-1].v)
		}
		// A window straddling the middle of the live range.
		from := ref[len(ref)/4].at
		to := ref[3*len(ref)/4].at
		got := pointsIn(s, "x", from, to)
		var want []refPoint
		for _, p := range ref {
			if !p.at.Before(from) && !p.at.After(to) {
				want = append(want, p)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("append %d: fold saw %d points, want %d", i, len(got), len(want))
		}
		for j := range got {
			if !got[j].At.Equal(want[j].at) || got[j].Value != want[j].v {
				t.Fatalf("append %d: point %d = %+v, want %+v", i, j, got[j], want[j])
			}
		}
		agg := s.RangeAgg("x", from, to)
		sum := 0.0
		for _, p := range want {
			sum += p.v
		}
		if agg.Count != len(want) || agg.Sum != sum {
			t.Fatalf("append %d: RangeAgg = %+v, want count %d sum %v", i, agg, len(want), sum)
		}
	}
}

// TestRingSteadyStateAllocFree pins the incremental-retention contract:
// once a series' ring covers its retention window, appends through a
// handle never allocate — no growth, no compaction pass.
func TestRingSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	s, _ := newTestStore(time.Hour)
	h := s.Handle("x")
	at := epoch
	// 2x the retention window of minute-cadence points: the ring grows to
	// its steady capacity and the head is live and chasing.
	for i := 0; i < 120; i++ {
		at = at.Add(time.Minute)
		h.RecordAt(at, float64(i))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		at = at.Add(time.Minute)
		h.RecordAt(at, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state RecordAt allocates %.1f objects, want 0", allocs)
	}
}
