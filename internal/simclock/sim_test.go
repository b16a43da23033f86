package simclock

import (
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSimNowStartsAtEpoch(t *testing.T) {
	s := NewSim(epoch)
	if got := s.Now(); !got.Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", got, epoch)
	}
}

func TestAfterFuncFiresAtDeadline(t *testing.T) {
	s := NewSim(epoch)
	var firedAt time.Time
	s.AfterFunc(10*time.Second, func() { firedAt = s.Now() })

	s.RunFor(9 * time.Second)
	if !firedAt.IsZero() {
		t.Fatalf("timer fired early at %v", firedAt)
	}
	s.RunFor(1 * time.Second)
	want := epoch.Add(10 * time.Second)
	if !firedAt.Equal(want) {
		t.Fatalf("fired at %v, want %v", firedAt, want)
	}
}

func TestAfterFuncStopPreventsFiring(t *testing.T) {
	s := NewSim(epoch)
	fired := false
	tm := s.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.RunFor(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestEqualTimestampsFireInRegistrationOrder(t *testing.T) {
	s := NewSim(epoch)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	s.RunFor(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
}

func TestTickEveryFiresPeriodically(t *testing.T) {
	s := NewSim(epoch)
	var times []time.Time
	s.TickEvery(30*time.Second, func() { times = append(times, s.Now()) })
	s.RunFor(2 * time.Minute)
	if len(times) != 4 {
		t.Fatalf("ticked %d times, want 4", len(times))
	}
	for i, at := range times {
		want := epoch.Add(time.Duration(i+1) * 30 * time.Second)
		if !at.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopHaltsFutureTicks(t *testing.T) {
	s := NewSim(epoch)
	n := 0
	tk := s.TickEvery(time.Second, func() { n++ })
	s.RunFor(3 * time.Second)
	tk.Stop()
	tk.Stop() // idempotent
	s.RunFor(10 * time.Second)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	s := NewSim(epoch)
	n := 0
	var tk Ticker
	tk = s.TickEvery(time.Second, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	s.RunFor(10 * time.Second)
	if n != 2 {
		t.Fatalf("ticks = %d, want 2", n)
	}
}

func TestNonPositiveTickPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TickEvery(0) did not panic")
		}
	}()
	NewSim(epoch).TickEvery(0, func() {})
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim(epoch)
	var firedAt time.Time
	s.AfterFunc(time.Second, func() {
		s.AfterFunc(time.Second, func() { firedAt = s.Now() })
	})
	s.RunFor(3 * time.Second)
	want := epoch.Add(2 * time.Second)
	if !firedAt.Equal(want) {
		t.Fatalf("nested timer fired at %v, want %v", firedAt, want)
	}
}

func TestRunAdvancesClockToUntilEvenWithoutEvents(t *testing.T) {
	s := NewSim(epoch)
	s.RunFor(time.Hour)
	if got, want := s.Now(), epoch.Add(time.Hour); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestRunDoesNotExecuteEventsBeyondLimit(t *testing.T) {
	s := NewSim(epoch)
	fired := false
	s.AfterFunc(2*time.Hour, func() { fired = true })
	s.RunFor(time.Hour)
	if fired {
		t.Fatal("event beyond limit fired")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
}

func TestStepExecutesOneEvent(t *testing.T) {
	s := NewSim(epoch)
	n := 0
	s.AfterFunc(time.Second, func() { n++ })
	s.AfterFunc(2*time.Second, func() { n++ })
	if !s.Step() {
		t.Fatal("Step() = false with pending events")
	}
	if n != 1 {
		t.Fatalf("after one Step, n = %d, want 1", n)
	}
	if got, want := s.Now(), epoch.Add(time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	if !s.Step() || s.Step() {
		t.Fatal("Step sequence wrong: want true then false")
	}
}

func TestRunReturnsEventCount(t *testing.T) {
	s := NewSim(epoch)
	s.TickEvery(time.Second, func() {})
	if n := s.RunFor(10 * time.Second); n != 10 {
		t.Fatalf("RunFor executed %d events, want 10", n)
	}
}

func TestSinceUsesSimTime(t *testing.T) {
	s := NewSim(epoch)
	start := s.Now()
	s.RunFor(90 * time.Second)
	if d := s.Since(start); d != 90*time.Second {
		t.Fatalf("Since = %v, want 90s", d)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	// Two identically-seeded simulations must produce identical event orders.
	run := func() []string {
		s := NewSim(epoch)
		var log []string
		s.TickEvery(30*time.Second, func() { log = append(log, "sync") })
		s.TickEvery(60*time.Second, func() { log = append(log, "fetch") })
		s.TickEvery(45*time.Second, func() { log = append(log, "report") })
		s.RunFor(5 * time.Minute)
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestRealClockBasics(t *testing.T) {
	c := NewReal()
	before := time.Now()
	now := c.Now()
	if now.Before(before) {
		t.Fatal("Real.Now went backwards")
	}
	fired := make(chan struct{}, 1)
	tk := c.TickEvery(time.Millisecond, func() {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("Real.TickEvery never fired")
	}
	tk.Stop()
	tk.Stop() // idempotent
}
