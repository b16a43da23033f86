package jobstore

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
)

// nullEntrySnapshots name jobs whose entries hold nothing: a null expected
// or running entry, or a running entry without a document.
var nullEntrySnapshots = []string{
	`{"schema":4,"expected":{},"running":{"j":null},"quarantined":{}}`,
	`{"schema":4,"expected":{"j":null},"running":{},"quarantined":{}}`,
	`{"schema":4,"expected":{"j":null},"running":{"j":{"Config":{"taskCount":1},"Version":1}}}`,
	`{"schema":4,"running":{"j":{"Config":null,"Version":1}}}`,
	`{"expected":{"j":null}}`,
}

// residentStore is a store with one converged job, one job awaiting its
// first commit and one quarantined job with a failure streak.
func residentStore(t testing.TB) *Store {
	t.Helper()
	s := New()
	for _, name := range []string{"keep", "pending", "parked"} {
		if err := s.Create(name, docBlob(config.Doc{"name": name, "taskCount": 2}), nil); err != nil {
			t.Fatal(err)
		}
	}
	m, v, err := s.MergedExpected("keep")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CommitRunning("keep", m, v); err != nil {
		t.Fatal(err)
	}
	s.SetQuarantine("parked", "test")
	s.UpdateSyncState("parked", func(ss *SyncState) { ss.FailureStreak = 3 })
	return s
}

func snapshotOf(t testing.TB, s *Store) []byte {
	t.Helper()
	data, err := s.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return data
}

// TestRestoreRejectsNullEntries: Restore refuses a snapshot with a job
// whose entry holds nothing before it touches the store, which keeps its
// contents and its locks: reads and writes go on working.
func TestRestoreRejectsNullEntries(t *testing.T) {
	requireRejected(t, nullEntrySnapshots)
}

// overlongNameSnapshots hold, one section each, a job name longer than
// config.MaxJobNameLen, with n the name's length.
func overlongNameSnapshots(n int) []string {
	name := strings.Repeat("n", n)
	return []string{
		`{"schema":4,"expected":{"` + name + `":{"Layers":[{"taskCount":1},null,null,null],"Version":1}}}`,
		`{"schema":4,"running":{"` + name + `":{"Config":{"taskCount":1},"Version":1}}}`,
		`{"schema":4,"quarantined":{"` + name + `":{"Reason":"r"}}}`,
		`{"schema":4,"sync":{"` + name + `":{"failureStreak":1}}}`,
	}
}

// TestRestoreRejectsOverlongNames: a job name one byte over
// config.MaxJobNameLen, in any section, is refused like a null entry;
// one at the bound restores.
func TestRestoreRejectsOverlongNames(t *testing.T) {
	requireRejected(t, overlongNameSnapshots(config.MaxJobNameLen+1))
	for _, snap := range overlongNameSnapshots(config.MaxJobNameLen) {
		if err := New().Restore([]byte(snap)); err != nil {
			t.Errorf("a name at the bound: %v", err)
		}
	}
}

// deepDocSnapshots hold a document whose innermost value sits levels deep,
// as the codec counts nesting: once as an expected layer, once as a
// running entry.
func deepDocSnapshots(levels int) []string {
	doc := strings.Repeat(`{"a":`, levels) + "1" + strings.Repeat("}", levels)
	return []string{
		`{"schema":4,"expected":{"j":{"Layers":[` + doc + `,null,null,null],"Version":1}}}`,
		`{"schema":4,"running":{"j":{"Config":` + doc + `,"Version":1}}}`,
	}
}

// TestRestoreRejectsDeepDocument: a document nested deeper than the codec
// reads, as a layer or as a running entry, is refused like a null entry;
// one at the bound restores and snapshots back to itself. Restoring the
// deeper one would fail every later merge of the job and every Snapshot.
func TestRestoreRejectsDeepDocument(t *testing.T) {
	requireRejected(t, deepDocSnapshots(65))
	for _, snap := range deepDocSnapshots(64) {
		s := residentStore(t)
		if err := s.Restore([]byte(snap)); err != nil {
			t.Fatalf("%.60s…: %v", snap, err)
		}
		requireRestoresBack(t, s)
	}
}

// requireRejected restores each snapshot into a resident store and
// requires an error that leaves the store's contents and locks as they
// were.
func requireRejected(t *testing.T, snaps []string) {
	t.Helper()
	for _, snap := range snaps {
		s := residentStore(t)
		before := snapshotOf(t, s)
		if err := s.Restore([]byte(snap)); err == nil {
			t.Errorf("%s: restored", snap)
			continue
		}
		if after := snapshotOf(t, s); !bytes.Equal(before, after) {
			t.Errorf("%s: a rejected restore changed the store:\n%s", snap, after)
		}
		m, v, err := s.MergedExpected("pending")
		if err != nil {
			t.Fatalf("%s: MergedExpected after a rejected restore: %v", snap, err)
		}
		if err := s.CommitRunning("pending", m, v); err != nil {
			t.Fatalf("%s: CommitRunning after a rejected restore: %v", snap, err)
		}
	}
}

// readAll reads every job of s through each per-job read, none of which
// may panic on a restored store.
func readAll(s *Store) {
	for _, name := range s.ExpectedNames() {
		s.GetExpected(name)
		s.MergedExpected(name)
		s.PlanViewOf(name)
	}
	for _, name := range s.RunningNames() {
		s.RunningDoc(name)
		s.RunningEntry(name)
		s.GetRunningShared(name)
	}
	s.DivergedRangeInto(0, NumStripes, nil)
}

// FuzzRestore holds Restore, the snapshot-file boundary LoadFile feeds,
// to its contract on any bytes: either it returns an error and the
// store's Snapshot is what it was, or it succeeds, every read works on
// what it restored, and Snapshot → Restore → Snapshot is byte-identical.
func FuzzRestore(f *testing.F) {
	for _, snap := range slices.Concat(nullEntrySnapshots, deepDocSnapshots(65)) {
		f.Add([]byte(snap))
	}
	golden, err := os.ReadFile("../jobservice/testdata/schema4_snapshot.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"schema":2,"expected":{"j":{"Layers":[{"taskCount":1},null,null,null],"Version":2}},` +
		`"running":{"j":{"Config":{"taskCount":1},"Version":1}},"quarantined":{},"dirty":["j"],` +
		`"sync":{"j":{"failureStreak":1,"nextRetryAt":"2026-01-01T00:00:00Z","followUps":["resume"]}}}`))
	f.Add([]byte(`{"schema":3,"expected":{},"running":{},"quarantined":{"q":{"Reason":"r"}},` +
		`"shardLeases":[{"shard":1,"holder":"node-1","epoch":2,"expires":"2026-01-01T00:02:00Z"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := residentStore(t)
		before := snapshotOf(t, s)
		if err := s.Restore(data); err != nil {
			if after := snapshotOf(t, s); !bytes.Equal(before, after) {
				t.Fatalf("rejected restore (%v) changed the store:\n%s", err, after)
			}
			return
		}
		requireRestoresBack(t, s)
	})
}

// requireRestoresBack fails unless every read works on s and Snapshot →
// Restore → Snapshot is byte-identical.
func requireRestoresBack(t testing.TB, s *Store) {
	t.Helper()
	readAll(s)
	first := snapshotOf(t, s)
	if err := s.Restore(first); err != nil {
		t.Fatalf("Restore of its own Snapshot: %v\n%s", err, first)
	}
	if second := snapshotOf(t, s); !bytes.Equal(first, second) {
		t.Fatalf("Snapshot → Restore → Snapshot differs:\n%s\n---\n%s", first, second)
	}
}
