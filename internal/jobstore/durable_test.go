package jobstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
)

func TestSyncStateLifecycle(t *testing.T) {
	s := New()
	if _, ok := s.SyncStateOf("j"); ok {
		t.Fatal("sync state present before any update")
	}
	deadline := time.Unix(1000, 0)
	s.UpdateSyncState("j", func(ss *SyncState) {
		ss.FailureStreak = 2
		ss.NextRetryAt = deadline
		ss.FollowUps = []string{"resume"}
	})
	ss, ok := s.SyncStateOf("j")
	if !ok || ss.FailureStreak != 2 || !ss.NextRetryAt.Equal(deadline) || len(ss.FollowUps) != 1 {
		t.Fatalf("SyncStateOf = %+v, %v", ss, ok)
	}
	// The returned copy is detached from the stored entry.
	ss.FollowUps[0] = "mutated"
	got, _ := s.SyncStateOf("j")
	if got.FollowUps[0] != "resume" {
		t.Fatal("SyncStateOf returned a shared slice")
	}
	if names := divergedAll(s); !reflect.DeepEqual(names, []string{"j"}) {
		t.Fatalf("diverged set = %v", names)
	}

	// Emptying the entry removes it entirely.
	s.UpdateSyncState("j", func(ss *SyncState) {
		ss.FailureStreak = 0
		ss.FollowUps = nil
	})
	if _, ok := s.SyncStateOf("j"); ok {
		t.Fatal("empty sync state not removed")
	}
	if names := divergedAll(s); len(names) != 0 {
		t.Fatalf("diverged set = %v, want empty", names)
	}

	s.UpdateSyncState("j", func(ss *SyncState) { ss.FailureStreak = 1 })
	s.ClearSyncState("j")
	if _, ok := s.SyncStateOf("j"); ok {
		t.Fatal("ClearSyncState left the entry behind")
	}
}

// TestSnapshotRestoreCarriesSyncerState: a snapshot carries the per-job
// sync states, and Restore rebuilds the diverged set from the restored
// entries and sync states — the same set the source store kept, with the
// converged job that holds a pending resume in it.
func TestSnapshotRestoreCarriesSyncerState(t *testing.T) {
	s := New()
	for _, job := range []string{"quiet", "pending", "streaky"} {
		if err := s.Create(job, docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
			t.Fatal(err)
		}
		if err := s.CommitRunning(job, committed(config.Doc{"taskCount": 1}), 1); err != nil {
			t.Fatal(err)
		}
	}
	// "streaky" has a release its running entry does not realize yet, and
	// "orphan" was deleted with its tasks still running.
	if _, err := s.SetLayer("streaky", config.LayerOncall, docBlob(config.Doc{"taskCount": 2}), Expected{Version: AnyVersion}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitRunning("orphan", committed(config.Doc{"taskCount": 1}), 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Unix(500, 0).UTC()
	s.UpdateSyncState("pending", func(ss *SyncState) { ss.FollowUps = []string{"resume"} })
	s.UpdateSyncState("streaky", func(ss *SyncState) {
		ss.FailureStreak = 3
		ss.NextRetryAt = deadline
	})

	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.Restore(data); err != nil {
		t.Fatal(err)
	}

	want := s.DivergedRangeInto(0, NumStripes, nil)
	if !reflect.DeepEqual(want, []string{"orphan", "pending", "streaky"}) {
		t.Fatalf("source diverged set = %v, want [orphan pending streaky]", want)
	}
	if got := s2.DivergedRangeInto(0, NumStripes, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("diverged set after restore = %v, want %v", got, want)
	}
	ss, ok := s2.SyncStateOf("pending")
	if !ok || !reflect.DeepEqual(ss.FollowUps, []string{"resume"}) {
		t.Fatalf("pending sync state = %+v, %v", ss, ok)
	}
	ss, ok = s2.SyncStateOf("streaky")
	if !ok || ss.FailureStreak != 3 || !ss.NextRetryAt.Equal(deadline) {
		t.Fatalf("streaky sync state = %+v, %v", ss, ok)
	}
}

// TestRestoreSchema4PendingResumeJoinsDivergedSet pins the on-disk form:
// a schema-4 snapshot of a converged job whose record holds a pending
// resume restores it into the diverged set, so the next round replays it,
// and serializes the record back byte for byte.
func TestRestoreSchema4PendingResumeJoinsDivergedSet(t *testing.T) {
	const snap = `{
  "schema": 4,
  "expected": {
    "j": {
      "Layers": [
        {
          "taskCount": 1
        },
        null,
        null,
        null
      ],
      "Version": 1
    }
  },
  "running": {
    "j": {
      "Config": {
        "taskCount": 1
      },
      "Version": 1
    }
  },
  "quarantined": {},
  "sync": {
    "j": {
      "nextRetryAt": "0001-01-01T00:00:00Z",
      "followUps": [
        "resume"
      ]
    }
  }
}`
	s := New()
	if err := s.Restore([]byte(snap)); err != nil {
		t.Fatal(err)
	}
	if got := divergedAll(s); !reflect.DeepEqual(got, []string{"j"}) {
		t.Fatalf("diverged set after restore = %v, want [j]", got)
	}
	if v := s.PlanViewOf("j"); !v.Resume || !v.Converged {
		t.Fatalf("PlanViewOf = %+v, want a converged job with a pending resume", v)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != snap {
		t.Fatalf("snapshot after restore:\n%s\nwant:\n%s", data, snap)
	}
}

// TestRestoreIgnoresSerializedDirtySet: a schema-3 snapshot still carries
// the dirty set the store used to keep. Restore derives the diverged set
// from the entries instead, so a converged job the old set named comes
// back out of it.
func TestRestoreIgnoresSerializedDirtySet(t *testing.T) {
	s := New()
	if err := s.Create("done", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitRunning("done", committed(config.Doc{"taskCount": 1}), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("new", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m["schema"] = json.RawMessage("3")
	m["dirty"] = json.RawMessage(`["done", "new"]`)
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}

	s2 := New()
	if err := s2.Restore(data); err != nil {
		t.Fatal(err)
	}
	if got := s2.DivergedRangeInto(0, NumStripes, nil); !reflect.DeepEqual(got, []string{"new"}) {
		t.Fatalf("diverged set after a schema-3 restore = %v, want [new]", got)
	}
	if data, err = s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"dirty"`)) {
		t.Fatal("a restored store serializes a dirty set again")
	}
}

// TestRestoreRejectsLegacySnapshot: a snapshot from before schema 2 (the
// field absent, or 1) carries no sync states, so Restore
// refuses it and leaves the store's contents and journal as they were.
func TestRestoreRejectsLegacySnapshot(t *testing.T) {
	s := New()
	if err := s.Create("keep", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitRunning("keep", committed(config.Doc{"taskCount": 1}), 1); err != nil {
		t.Fatal(err)
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "sync")

	target := New()
	if err := target.CommitRunning("resident", committed(config.Doc{"taskCount": 2}), 1); err != nil {
		t.Fatal(err)
	}
	head := target.JournalHead()
	for _, schema := range []json.RawMessage{nil, json.RawMessage("1")} {
		if schema == nil {
			delete(m, "schema")
		} else {
			m["schema"] = schema
		}
		legacy, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := target.Restore(legacy); err == nil {
			t.Fatalf("schema %s: legacy snapshot restored", schema)
		}
		if got := target.RunningNames(); !reflect.DeepEqual(got, []string{"resident"}) {
			t.Fatalf("schema %s: running jobs after a rejected restore = %v, want [resident]", schema, got)
		}
		if _, next, ok := target.ChangesSince(head, nil); !ok || next != head {
			t.Fatalf("schema %s: rejected restore moved the journal (next=%d ok=%v, head %d)", schema, next, ok, head)
		}
	}
}

func TestCommitHooks(t *testing.T) {
	s := New()
	if err := s.Create("j", docBlob(config.Doc{"taskCount": 1}), nil); err != nil {
		t.Fatal(err)
	}

	var before, after []string
	s.SetCommitHooks(&CommitHooks{
		Before: func(name string) error {
			before = append(before, name)
			if name == "blocked" {
				return errors.New("injected: crash before commit")
			}
			return nil
		},
		After: func(name string) { after = append(after, name) },
	})

	if err := s.CommitRunning("j", committed(config.Doc{"taskCount": 1}), 1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, []string{"j"}) || !reflect.DeepEqual(after, []string{"j"}) {
		t.Fatalf("hooks = before %v after %v", before, after)
	}

	// A Before error aborts the commit: no running entry appears.
	if err := s.CommitRunning("blocked", committed(config.Doc{"taskCount": 1}), 1); err == nil {
		t.Fatal("commit succeeded despite Before error")
	}
	if _, ok := s.GetRunningShared("blocked"); ok {
		t.Fatal("aborted commit still wrote the running entry")
	}
	if len(after) != 1 {
		t.Fatalf("After ran for an aborted commit: %v", after)
	}

	// Removing the hooks restores plain commits.
	s.SetCommitHooks(nil)
	if err := s.CommitRunning("blocked", committed(config.Doc{"taskCount": 1}), 1); err != nil {
		t.Fatal(err)
	}
}
