package jobstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/wire"
)

// ledgerUniverse is the name set the diverged-set tests draw from: small, so
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

// checkLedger holds the diverged set to the paper's stateless full
// comparison, kept here as the test oracle: for each range
// DivergedRangeInto must append exactly the sorted names whose expected
// and running entries (GetExpected, RunningDoc) are not converged, or that
// hold a sync record, after the caller's prefix,
// and leave the prefix alone.
func checkLedger(t *testing.T, s *Store, names []string, step string) {
	t.Helper()
	for _, r := range ledgerRanges {
		lo, hi := r[0], r[1]
		var want []string
		for _, name := range names {
			if st := StripeOf(name); st < lo || st >= hi {
				continue
			}
			e, err := s.GetExpected(name)
			hasExp := err == nil
			_, rv, hasRun := s.RunningDoc(name)
			_, held := s.SyncStateOf(name)
			if held || (hasExp || hasRun) && !(hasExp && hasRun && e.Version == rv) {
				want = append(want, name)
			}
		}
		sort.Strings(want)
		prefix := []string{"~prefix"}
		got := s.DivergedRangeInto(lo, hi, prefix)
		if got[0] != "~prefix" {
			t.Fatalf("%s: [%d,%d) overwrote the caller's prefix: %v", step, lo, hi, got)
		}
		if got = got[1:]; len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: [%d,%d) diverged = %v, want %v", step, lo, hi, got, want)
		}
	}
}

// randomLedgerOp applies one random write — every Store method that
// changes an expected or a running entry or a sync record, the
// quarantine writes that must leave the set alone, and a Snapshot →
// Restore round trip — and describes it. Writes that fail (creating a job that exists, editing one
// that does not) are part of the mix: a refused write must leave the set
// alone too.
func randomLedgerOp(t *testing.T, s *Store, rng *rand.Rand, names []string) string {
	name := names[rng.Intn(len(names))]
	switch op := rng.Intn(12); op {
	case 0:
		s.Create(name, docBlob(config.Doc{"taskCount": 1}), nil)
		return "Create " + name
	case 1:
		s.SetLayer(name, config.LayerScaler, docBlob(config.Doc{"taskCount": rng.Intn(8)}), Expected{Version: AnyVersion}, nil)
		return "SetLayer " + name
	case 2:
		s.Delete(name)
		return "Delete " + name
	case 3, 4:
		// Mostly the version the expected entry is at (converging the
		// job), sometimes a stale or made-up one.
		v := int64(rng.Intn(3) + 1)
		if e, err := s.GetExpected(name); err == nil && rng.Intn(3) > 0 {
			v = e.Version
		}
		// A blob alone (the store decodes its config) or a merge with
		// its config; now and then a document that is no JobConfig.
		d := config.Doc{"taskCount": rng.Intn(4)}
		if rng.Intn(4) == 0 {
			d = config.Doc{"taskCount": "many"}
		}
		m := committed(d)
		if op == 4 {
			m = decoded(m.Doc)
		}
		if err := s.CommitRunning(name, m, v); err != nil {
			t.Errorf("CommitRunning %s: %v", name, err)
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
	case 7:
		s.SetQuarantine(name, "random")
		return "SetQuarantine " + name
	case 8:
		s.ClearQuarantine(name)
		return "ClearQuarantine " + name
	case 9:
		// A streak, a pending resume, both, or neither (which empties
		// the record).
		streak, resume := rng.Intn(2), rng.Intn(2) == 0
		s.UpdateSyncState(name, func(ss *SyncState) {
			ss.FailureStreak = streak
			ss.FollowUps = nil
			if resume {
				ss.FollowUps = []string{"resume"}
			}
		})
		return fmt.Sprintf("UpdateSyncState %s streak=%d resume=%v", name, streak, resume)
	case 10:
		s.ResolveFailureStreak(name)
		return "ResolveFailureStreak " + name
	default:
		s.ClearSyncState(name)
		return "ClearSyncState " + name
	}
}

// TestVersionLedgerMatchesEntries: through random sequences of every
// write that touches an expected or a running entry or a sync record —
// re-creates under a deleted name, quarantines and Restore included — the
// diverged set agrees with the entries and records after every op.
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
// goroutines against a walker reading the diverged set (run it under
// -race) — each read must be sorted, duplicate-free and drawn from the
// job universe — then checks the quiescent set against the entries.
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
				buf = s.DivergedRangeInto(r[0], r[1], buf[:0])
				for i, name := range buf {
					if st := StripeOf(name); st < r[0] || st >= r[1] || !slices.Contains(names, name) || i > 0 && buf[i-1] >= name {
						t.Errorf("[%d,%d): read %v", r[0], r[1], buf)
						return
					}
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

// checkRunningReads holds the running-entry reads to one another for
// every job of names: RunningEntry's config is the typed decode of
// RunningDoc's blob (nil exactly when the blob is no JobConfig), and
// GetRunningShared's document is the blob's decode. It returns each
// running job's revision and blob.
func checkRunningReads(t *testing.T, s *Store, names []string, step string) map[string]runningRead {
	t.Helper()
	revs := make(map[string]runningRead)
	for _, name := range names {
		m, _, ok := s.RunningDoc(name)
		cfg, rev, entryOK := s.RunningEntry(name)
		shared, sharedOK := s.GetRunningShared(name)
		if ok != entryOK || ok != sharedOK {
			t.Fatalf("%s: %s running in RunningDoc %v, RunningEntry %v, GetRunningShared %v", step, name, ok, entryOK, sharedOK)
		}
		if !ok {
			continue
		}
		revs[name] = runningRead{rev, m.Doc}
		want, err := wire.DecodeJobConfigBlob(m.Doc)
		if errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("%s: %s holds a malformed blob: %v", step, name, err)
		}
		if cfg != m.Config || (cfg == nil) != (want == nil) || cfg != nil && !reflect.DeepEqual(*cfg, *want) {
			t.Fatalf("%s: %s config %+v (RunningDoc's %p), want the blob's decode %+v", step, name, cfg, m.Config, want)
		}
		doc, err := m.Doc.Doc()
		if err != nil || !reflect.DeepEqual(shared.Config, doc) {
			t.Fatalf("%s: %s GetRunningShared = %v, want the blob's decode %v (%v)", step, name, shared.Config, doc, err)
		}
	}
	return revs
}

// runningRead is one running entry's revision and blob.
type runningRead struct {
	rev int64
	doc wire.Blob
}

// TestRunningReadsAgree: through random sequences of every write — among
// them commits of a bare blob and of a merge with its config, drops and
// Snapshot → Restore round trips — the running reads agree after every
// op, a commit of new content moves its job's revision past every
// revision issued before, a restore restamps every entry so, and nothing
// else moves one: a commit of the bytes the entry holds keeps it.
func TestRunningReadsAgree(t *testing.T) {
	names := ledgerUniverse(24)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		prev := checkRunningReads(t, s, names, "empty store")
		var issued int64 // the highest revision seen so far
		for i := 0; i < 400; i++ {
			op := randomLedgerOp(t, s, rng, names)
			step := fmt.Sprintf("seed %d op %d (%s)", seed, i, op)
			revs := checkRunningReads(t, s, names, step)
			fields := strings.Fields(op)
			for name, r := range revs {
				old, had := prev[name]
				moved := fields[0] == "CommitRunning" && fields[1] == name && !(had && bytes.Equal(old.doc, r.doc)) || op == "Restore(Snapshot())"
				if moved && r.rev <= issued || !moved && (!had || r.rev != old.rev) {
					t.Fatalf("%s: %s revision %d (was %d, present %v; highest issued %d)", step, name, r.rev, old.rev, had, issued)
				}
			}
			for _, r := range revs {
				issued = max(issued, r.rev)
			}
			prev = revs
		}
	}
}
