package jobstore

import (
	"testing"
	"time"
)

func TestShardLeaseAcquireRenewSteal(t *testing.T) {
	s := New()
	t0 := time.Unix(0, 0)
	ttl := 90 * time.Second

	l, ok := s.AcquireShardLease(3, "a", t0, ttl)
	if !ok || l.Epoch != 1 || l.Holder != "a" {
		t.Fatalf("fresh acquire = %+v, %v; want holder a epoch 1", l, ok)
	}
	if !l.Live(t0) || l.Live(t0.Add(ttl)) {
		t.Fatalf("lease %+v has wrong liveness window", l)
	}

	// Re-acquire by the owner: same epoch, extended expiry.
	l2, ok := s.AcquireShardLease(3, "a", t0.Add(30*time.Second), ttl)
	if !ok || l2.Epoch != 1 || !l2.Expires.After(l.Expires) {
		t.Fatalf("owner re-acquire = %+v, %v; want same epoch, later expiry", l2, ok)
	}

	// A foreign acquire against a live lease is refused and reports the
	// standing lease.
	l3, ok := s.AcquireShardLease(3, "b", t0.Add(time.Minute), ttl)
	if ok || l3.Holder != "a" {
		t.Fatalf("foreign acquire against live lease = %+v, %v; want refusal with standing lease", l3, ok)
	}

	// Renewal is holder- and epoch-fenced.
	if !s.RenewShardLease(3, "a", 1, t0.Add(time.Minute), ttl) {
		t.Fatal("owner renewal at the granted epoch refused")
	}
	if s.RenewShardLease(3, "a", 2, t0.Add(time.Minute), ttl) {
		t.Fatal("renewal at a wrong epoch granted")
	}
	if s.RenewShardLease(3, "b", 1, t0.Add(time.Minute), ttl) {
		t.Fatal("renewal by a non-holder granted")
	}
	if s.RenewShardLease(4, "a", 1, t0.Add(time.Minute), ttl) {
		t.Fatal("renewal of an absent row granted")
	}

	// Past the TTL a foreign acquire steals, bumping the epoch; the old
	// holder can then neither renew nor silently re-extend.
	steal, ok := s.AcquireShardLease(3, "b", t0.Add(time.Hour), ttl)
	if !ok || steal.Holder != "b" || steal.Epoch != 2 {
		t.Fatalf("steal = %+v, %v; want holder b epoch 2", steal, ok)
	}
	if s.RenewShardLease(3, "a", 1, t0.Add(time.Hour), ttl) {
		t.Fatal("stolen-from holder renewed itself back in")
	}
	if l, ok := s.AcquireShardLease(3, "a", t0.Add(time.Hour), ttl); ok || l.Holder != "b" {
		t.Fatalf("stolen-from holder re-acquired a live foreign lease: %+v, %v", l, ok)
	}
}

func TestShardLeasesListingAndClear(t *testing.T) {
	s := New()
	t0 := time.Unix(0, 0)
	for _, shard := range []int{2, 0, 1} {
		s.AcquireShardLease(shard, "n", t0, time.Minute)
	}
	rows := s.ShardLeases()
	if len(rows) != 3 {
		t.Fatalf("got %d lease rows, want 3", len(rows))
	}
	for i, l := range rows {
		if l.Shard != i {
			t.Fatalf("rows not sorted by shard: %+v", rows)
		}
	}
	s.ClearShardLeases()
	if got := s.ShardLeases(); len(got) != 0 {
		t.Fatalf("ClearShardLeases left %d rows", len(got))
	}
	// Epoch fencing restarts from scratch after a clear.
	if l, ok := s.AcquireShardLease(2, "m", t0, time.Minute); !ok || l.Epoch != 1 {
		t.Fatalf("post-clear acquire = %+v, %v; want fresh epoch 1", l, ok)
	}
}

func TestShardLeasesSurviveSnapshotRestore(t *testing.T) {
	s := New()
	t0 := time.Unix(0, 0)
	s.AcquireShardLease(0, "a", t0, time.Minute)
	s.AcquireShardLease(1, "b", t0, time.Minute)
	s.AcquireShardLease(1, "c", t0.Add(time.Hour), time.Minute) // steal: epoch 2

	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	got := restored.ShardLeases()
	want := s.ShardLeases()
	if len(got) != len(want) {
		t.Fatalf("restored %d lease rows, want %d", len(got), len(want))
	}
	for i := range got {
		// Expires goes through JSON, which drops the wall-clock location:
		// compare instants, not struct representations.
		if got[i].Shard != want[i].Shard || got[i].Holder != want[i].Holder ||
			got[i].Epoch != want[i].Epoch || !got[i].Expires.Equal(want[i].Expires) {
			t.Fatalf("restored lease %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[1].Epoch != 2 || got[1].Holder != "c" {
		t.Fatalf("steal epoch did not survive restore: %+v", got[1])
	}
}
