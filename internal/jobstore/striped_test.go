package jobstore

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/config"
)

// divergedAll reads the whole store's diverged set.
func divergedAll(s *Store) []string {
	return s.DivergedRangeInto(0, NumStripes, nil)
}

// TestDivergedSetSemantics walks one job pair through every write that
// moves the diverged set — entry writes and sync-record writes — and the
// quarantine writes that must not.
func TestDivergedSetSemantics(t *testing.T) {
	s := New()
	check := func(step string, want ...string) {
		t.Helper()
		if got := divergedAll(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("diverged set after %s = %v, want %v", step, got, want)
		}
	}
	check("New")
	if err := s.Create("b", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("a", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}
	check("Create", "a", "b")
	s.CommitRunning("a", committed(config.Doc{"taskCount": 1}), 1)
	s.CommitRunning("b", committed(config.Doc{"taskCount": 1}), 1)
	check("CommitRunning")

	// A layer write diverges the job until a commit realizes its version;
	// a commit of a stale version leaves it diverged.
	if _, err := s.SetLayer("a", config.LayerScaler, docBlob(config.Doc{"taskCount": 2}), Expected{Version: AnyVersion}, nil); err != nil {
		t.Fatal(err)
	}
	check("SetLayer", "a")
	s.CommitRunning("a", committed(config.Doc{"taskCount": 1}), 1)
	check("a stale CommitRunning", "a")
	s.CommitRunning("a", committed(config.Doc{"taskCount": 2}), 2)
	check("CommitRunning")

	// Quarantine does not move the set, either way.
	s.SetQuarantine("a", "boom")
	check("SetQuarantine")
	s.ClearQuarantine("a")
	check("ClearQuarantine")

	// A sync record keeps a converged job in the set until it is gone.
	s.UpdateSyncState("a", func(ss *SyncState) { ss.FailureStreak = 1 })
	check("UpdateSyncState (streak)", "a")
	s.ResolveFailureStreak("a")
	check("ResolveFailureStreak")
	s.UpdateSyncState("a", func(ss *SyncState) {
		ss.FailureStreak = 2
		ss.FollowUps = []string{"resume"}
	})
	s.ResolveFailureStreak("a")
	check("ResolveFailureStreak (resume pending)", "a")
	s.UpdateSyncState("a", func(ss *SyncState) { ss.FollowUps = nil })
	check("UpdateSyncState (emptied)")
	s.UpdateSyncState("a", func(ss *SyncState) { ss.FollowUps = []string{"resume"} })
	check("UpdateSyncState (resume)", "a")
	s.ClearSyncState("a")
	check("ClearSyncState")
	s.UpdateSyncState("gone", func(ss *SyncState) { ss.FailureStreak = 1 })
	check("UpdateSyncState (no entries)", "gone")
	s.ClearSyncState("gone")
	check("ClearSyncState (no entries)")

	// Delete diverges the job until its running entry is dropped.
	if err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}
	check("Delete", "b")
	s.DropRunning("b")
	check("DropRunning")
}

func TestNameSnapshotsAreCopyOnWrite(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		s.CommitRunning(fmt.Sprintf("j%03d", i), committed(config.Doc{"taskCount": 1}), 1)
	}
	a := s.RunningNames()
	bnames := s.RunningNames()
	if &a[0] != &bnames[0] {
		t.Fatal("consecutive RunningNames calls must share one snapshot")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.RunningNames() }); allocs != 0 {
		t.Fatalf("steady-state RunningNames allocates %v per call, want 0", allocs)
	}
	s.CommitRunning("zzz", committed(config.Doc{"taskCount": 1}), 1)
	c := s.RunningNames()
	if len(c) != 101 || c[100] != "zzz" {
		t.Fatalf("snapshot after a first commit = len %d, last %q", len(c), c[len(c)-1])
	}
	if len(a) != 100 {
		t.Fatalf("old snapshot mutated: len %d, want 100", len(a))
	}
	s.CommitRunning("j000", committed(config.Doc{"taskCount": 2}), 2) // re-commit: name set unchanged
	if d := s.RunningNames(); &c[0] != &d[0] {
		t.Fatal("re-commit of an existing job must not invalidate the name snapshot")
	}
	s.DropRunning("j000")
	if got := s.RunningNames(); len(got) != 100 || got[0] != "j001" {
		t.Fatalf("RunningNames after DropRunning = len %d, first %q", len(got), got[0])
	}
	if len(c) != 101 || c[0] != "j000" {
		t.Fatalf("old snapshot mutated by DropRunning: len %d, first %q", len(c), c[0])
	}

	// ExpectedNames keeps no snapshot: every call is a fresh sorted slice
	// the caller owns.
	if err := s.Create("b", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("a", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}
	e1 := s.ExpectedNames()
	if !reflect.DeepEqual(e1, []string{"a", "b"}) {
		t.Fatalf("ExpectedNames = %v", e1)
	}
	e1[0] = "mutated"
	if e2 := s.ExpectedNames(); e2[0] != "a" {
		t.Fatalf("ExpectedNames shares its result across calls: %v", e2)
	}
}

func TestSharedDocsAvoidCloning(t *testing.T) {
	s := New()
	if err := s.Create("j", docBlob(config.Doc{"taskCount": 4, "package": config.Doc{"version": "v1"}}), nil); err != nil {
		t.Fatal(err)
	}
	m1, v1, err := s.MergedExpected("j")
	if err != nil {
		t.Fatal(err)
	}
	m2, v2, err := s.MergedExpected("j")
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := m1.Doc, m2.Doc
	if v1 != v2 || !sameBlob(d1, d2) || m1.Config != m2.Config {
		t.Fatal("MergedExpected must return the cached blob and config themselves on a hit")
	}
	before := bytes.Clone(d1)

	// A layer write replaces (never mutates) the cached blob.
	if _, err := s.SetLayer("j", config.LayerOncall, docBlob(config.Doc{"package": config.Doc{"version": "v2"}}), Expected{Version: AnyVersion}, nil); err != nil {
		t.Fatal(err)
	}
	m3, _, err := s.MergedExpected("j")
	if err != nil {
		t.Fatal(err)
	}
	d3 := m3.Doc
	if sameBlob(d3, d1) {
		t.Fatal("stale cached blob returned after layer write")
	}
	if !bytes.Equal(d1, before) {
		t.Fatal("old shared blob mutated")
	}
	if got := m3.Config.Package.Version; got != "v2" {
		t.Fatalf("new shared config = %v, want v2", got)
	}

	// CommitRunning stores the blob itself; RunningDoc hands it back.
	s.CommitRunning("j", m3, 2)
	r, _, ok := s.RunningDoc("j")
	if !ok {
		t.Fatal("running entry missing")
	}
	if !sameBlob(r.Doc, d3) || r.Config != m3.Config {
		t.Fatal("RunningDoc must return the committed blob and config without copying")
	}
	// GetRunningShared decodes the entry once and shares the document.
	sh1, _ := s.GetRunningShared("j")
	sh2, _ := s.GetRunningShared("j")
	if !reflect.DeepEqual(sh1.Config, docOf(t, d3)) || reflect.ValueOf(sh1.Config).Pointer() != reflect.ValueOf(sh2.Config).Pointer() {
		t.Fatalf("GetRunningShared = %v then another document; want the blob's document, shared", sh1.Config)
	}
}

func TestRestoreRebuildsDivergedSetAndRestampsRevisions(t *testing.T) {
	s := New()
	if err := s.Create("keep", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}
	s.CommitRunning("keep", committed(config.Doc{"taskCount": 1}), 1)
	s.CommitRunning("orphan", committed(config.Doc{"taskCount": 1}), 1) // deleted-while-down shape
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// The target's own pending job is replaced along with its entries.
	s2 := New()
	if err := s2.Create("stale", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(data); err != nil {
		t.Fatal(err)
	}
	if got := divergedAll(s2); !reflect.DeepEqual(got, []string{"orphan"}) {
		t.Fatalf("diverged set after Restore = %v, want [orphan]", got)
	}
	_, rev1, ok1 := s2.RunningEntry("keep")
	_, rev2, ok2 := s2.RunningEntry("orphan")
	if !ok1 || !ok2 || rev1 == rev2 || rev1 <= 0 || rev2 <= 0 {
		t.Fatalf("restored revisions = %d,%d; want distinct positive", rev1, rev2)
	}
}

func TestStripeDistribution(t *testing.T) {
	s := New()
	hit := make(map[*jobStripe]int)
	for i := 0; i < 50_000; i++ {
		hit[s.stripeFor(fmt.Sprintf("j%05d", i))]++
	}
	if len(hit) != numStripes {
		t.Fatalf("50k names hit %d/%d stripes", len(hit), numStripes)
	}
	for st, n := range hit {
		if n > 50_000/numStripes*4 {
			t.Fatalf("stripe %p overloaded: %d names", st, n)
		}
	}
}

// TestConcurrentFanIn exercises the striped store under the race detector:
// concurrent CAS writes, shared merged reads, commits, name listings, and
// diverged-set reads across overlapping jobs.
func TestConcurrentFanIn(t *testing.T) {
	s := New()
	const jobs = 256
	for i := 0; i < jobs; i++ {
		if err := s.Create(fmt.Sprintf("j%03d", i), docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				name := fmt.Sprintf("j%03d", (w*137+i)%jobs)
				switch i % 5 {
				case 0:
					s.SetLayer(name, config.LayerScaler, docBlob(config.Doc{"taskCount": i}), Expected{Version: AnyVersion}, nil)
				case 1:
					if doc, v, err := s.MergedExpected(name); err == nil {
						s.CommitRunning(name, doc, v)
					}
				case 2:
					s.ExpectedNames()
					s.RunningNames()
				case 3:
					s.GetRunningShared(name)
					s.RunningEntry(name)
				case 4:
					divergedAll(s)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(s.ExpectedNames()); got != jobs {
		t.Fatalf("ExpectedNames = %d, want %d", got, jobs)
	}
}
