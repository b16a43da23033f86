package jobstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/config"
)

// ledgerUniverse is the name set the ledger tests draw from: small, so
// random ops keep re-creating, re-committing and dropping the same jobs.
func ledgerUniverse(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("job%02d", i)
	}
	return names
}

// ledgerRanges are the stripe ranges every check walks: the whole store,
// a four-way slice, a single stripe and an empty range.
var ledgerRanges = [][2]int{{0, NumStripes}, {16, 32}, {5, 6}, {9, 9}}

// checkLedger holds DivergedRangeInto to PlanViewOf over names: for each
// range it must append exactly the sorted names PlanViewOf calls not
// converged after the caller's prefix, leave the prefix alone, and count
// every job with an expected or a running entry in range as visited.
func checkLedger(t *testing.T, s *Store, names []string, step string) {
	t.Helper()
	for _, r := range ledgerRanges {
		lo, hi := r[0], r[1]
		var want []string
		wantVisited := 0
		for _, name := range names {
			if st := StripeOf(name); st < lo || st >= hi {
				continue
			}
			v := s.PlanViewOf(name)
			if !v.HasExpected && !v.HasRunning {
				continue
			}
			wantVisited++
			if !(v.HasExpected && v.HasRunning && v.RunningVersion == v.ExpectedVersion) {
				want = append(want, name)
			}
		}
		sort.Strings(want)
		prefix := []string{"~prefix"}
		got, visited := s.DivergedRangeInto(lo, hi, prefix)
		if got[0] != "~prefix" {
			t.Fatalf("%s: [%d,%d) overwrote the caller's prefix: %v", step, lo, hi, got)
		}
		if got = got[1:]; len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: [%d,%d) diverged = %v, want %v", step, lo, hi, got, want)
		}
		if visited != wantVisited {
			t.Fatalf("%s: [%d,%d) visited %d jobs, want %d", step, lo, hi, visited, wantVisited)
		}
	}
}

// randomLedgerOp applies one random write — every Store method that
// changes an expected or a running entry — and describes it. Writes
// that fail (creating a job that exists, editing one that does not) are
// part of the mix: a refused write must leave the ledger alone too.
func randomLedgerOp(t *testing.T, s *Store, rng *rand.Rand, names []string) string {
	name := names[rng.Intn(len(names))]
	switch op := rng.Intn(8); op {
	case 0:
		s.Create(name, config.Doc{"taskCount": 1})
		return "Create " + name
	case 1:
		s.SetLayer(name, config.LayerScaler, config.Doc{"taskCount": rng.Intn(8)}, Expected{Version: AnyVersion}, nil)
		return "SetLayer " + name
	case 2:
		s.Delete(name)
		return "Delete " + name
	case 3, 4:
		// Mostly the version the expected entry is at (converging the
		// job), sometimes a stale or made-up one.
		v := int64(rng.Intn(3) + 1)
		if e, err := s.GetExpectedShared(name); err == nil && rng.Intn(3) > 0 {
			v = e.Version
		}
		if op == 3 {
			s.CommitRunning(name, config.Doc{"taskCount": 1}, v)
		} else {
			s.CommitRunningShared(name, config.Doc{"taskCount": 1}, v)
		}
		return fmt.Sprintf("CommitRunning %s v%d", name, v)
	case 5:
		s.DropRunning(name)
		return "DropRunning " + name
	case 6:
		data, err := s.Snapshot()
		if err == nil {
			err = s.Restore(data)
		}
		if err != nil {
			t.Errorf("Restore(Snapshot()): %v", err)
		}
		return "Restore(Snapshot())"
	default:
		s.ClearQuarantine(name) // no entry changes: the ledger must not move
		return "ClearQuarantine " + name
	}
}

// TestVersionLedgerMatchesEntries: through random sequences of every
// write that touches an expected or a running entry — re-creates under a
// deleted name and Restore included — the version ledger agrees with the
// entries themselves after every op.
func TestVersionLedgerMatchesEntries(t *testing.T) {
	names := ledgerUniverse(40)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		checkLedger(t, s, names, "empty store")
		for i := 0; i < 400; i++ {
			op := randomLedgerOp(t, s, rng, names)
			checkLedger(t, s, names, fmt.Sprintf("seed %d op %d (%s)", seed, i, op))
		}
	}
}

// TestVersionLedgerConcurrentWriters runs the random writes from several
// goroutines against a walker reading DivergedRangeInto (run it under
// -race), then checks the quiescent ledger against the entries.
func TestVersionLedgerConcurrentWriters(t *testing.T) {
	names := ledgerUniverse(64)
	s := New()
	stop := make(chan struct{})
	var walker sync.WaitGroup
	walker.Add(1)
	go func() {
		defer walker.Done()
		var buf []string
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range ledgerRanges {
				var visited int
				buf, visited = s.DivergedRangeInto(r[0], r[1], buf[:0])
				if len(buf) > visited {
					t.Errorf("[%d,%d): %d diverged of %d visited", r[0], r[1], len(buf), visited)
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				randomLedgerOp(t, s, rng, names)
			}
		}(int64(w + 1))
	}
	writers.Wait()
	close(stop)
	walker.Wait()
	checkLedger(t, s, names, "after concurrent writers")
}
