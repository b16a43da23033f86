package backoff

import (
	"testing"
	"time"
)

// TestDelayPinsBothCallSites pins Delay to the values the two
// implementations it replaced returned for streaks 1–12: the State
// Syncer's job-retry backoff (base 30 s, max 5 min, streak-2 doublings,
// streak 1 retried immediately by the caller) and the spec-feed dialer's
// redial backoff (base 1 s, max 1 min, streak-1 doublings). The soak's
// replay determinism rides on these being bit-identical.
func TestDelayPinsBothCallSites(t *testing.T) {
	syncer := []int64{ // streaks 2–12
		28561310318, 51812946814, 98246970280, 234984981975, 266891773738, 298829598942,
		255767424145, 287705249349, 271179479524, 228117304727, 260055129931}
	for i, want := range syncer {
		streak := i + 2
		if got := Delay(30*time.Second, 5*time.Minute, streak-2, "soak/j03", uint64(streak)); int64(got) != want {
			t.Errorf("syncer streak %d: %d, want %d", streak, got, want)
		}
	}
	dial := []int64{ // streaks 1–12
		784709187, 1659185146, 3187533198, 6301659624, 13900596392, 29059190299,
		51873201523, 59551213151, 46369981532, 48188749914, 50007518296, 51826286678}
	for i, want := range dial {
		streak := i + 1
		if got := Delay(time.Second, time.Minute, streak-1, "127.0.0.1:7071", uint64(streak)); int64(got) != want {
			t.Errorf("dial streak %d: %d, want %d", streak, got, want)
		}
	}
}

func TestDelayDeterministicBoundedAndSpread(t *testing.T) {
	for doublings := 0; doublings <= 10; doublings++ {
		d1 := Delay(30*time.Second, 5*time.Minute, doublings, "j", uint64(doublings))
		d2 := Delay(30*time.Second, 5*time.Minute, doublings, "j", uint64(doublings))
		if d1 != d2 {
			t.Fatalf("%d doublings: nondeterministic delay %v vs %v", doublings, d1, d2)
		}
		nominal := 30 * time.Second << doublings
		if nominal > 5*time.Minute {
			nominal = 5 * time.Minute
		}
		if d1 > nominal || d1 < nominal-nominal/4 {
			t.Fatalf("%d doublings: delay %v outside [%v less quarter jitter, %v]", doublings, d1, nominal, nominal)
		}
	}
	// Jitter spreads distinct keys apart (not in lockstep).
	spread := map[time.Duration]bool{}
	for _, key := range []string{"a", "b", "c", "d", "e", "f"} {
		spread[Delay(30*time.Second, 5*time.Minute, 2, key, 4)] = true
	}
	if len(spread) < 2 {
		t.Fatal("per-key jitter produced identical delays for every key")
	}
}
