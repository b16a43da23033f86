package jobstore

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/config"
)

func commitN(t testing.TB, s *Store, name string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.CommitRunning(name, committed(config.Doc{"v": int64(i)}), int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJournalRecordsCommitsAndDropsInOrder(t *testing.T) {
	s := New()
	s.CommitRunning("a", committed(config.Doc{}), 1)
	s.CommitRunning("b", committed(config.Doc{}), 1)
	s.DropRunning("a")
	s.CommitRunning("b", committed(config.Doc{"x": int64(1)}), 2)

	changes, next, ok := s.ChangesSince(0, nil)
	if !ok {
		t.Fatal("fresh cursor over a young store must not resync")
	}
	want := []Change{
		{Seq: 1, Name: "a"},
		{Seq: 2, Name: "b"},
		{Seq: 3, Name: "a", Drop: true},
		{Seq: 4, Name: "b"},
	}
	if len(changes) != len(want) {
		t.Fatalf("changes = %+v, want %+v", changes, want)
	}
	for i := range want {
		if changes[i] != want[i] {
			t.Fatalf("changes[%d] = %+v, want %+v", i, changes[i], want[i])
		}
	}
	if next != 4 {
		t.Fatalf("next = %d, want 4", next)
	}

	// Cursor advanced: no changes, same cursor back.
	changes, next2, ok := s.ChangesSince(next, changes[:0])
	if !ok || len(changes) != 0 || next2 != next {
		t.Fatalf("caught-up cursor returned %+v next=%d ok=%v", changes, next2, ok)
	}
}

func TestJournalDropOfAbsentRunningNotRecorded(t *testing.T) {
	s := New()
	s.DropRunning("ghost")
	if changes, _, ok := s.ChangesSince(0, nil); !ok || len(changes) != 0 {
		t.Fatalf("drop of absent running entry journaled: %+v", changes)
	}
}

func TestJournalOverflowForcesResync(t *testing.T) {
	s := New()
	commitN(t, s, "hot", JournalCap+10)

	// A cursor from before the flood is unrecoverable.
	if _, next, ok := s.ChangesSince(0, nil); ok {
		t.Fatal("cursor JournalCap+10 behind did not get the resync sentinel")
	} else if next != uint64(JournalCap+10) {
		t.Fatalf("resync cursor = %d, want %d", next, JournalCap+10)
	}

	// The resync cursor works incrementally from there on.
	_, next, _ := s.ChangesSince(0, nil)
	s.CommitRunning("hot", committed(config.Doc{"post": int64(1)}), 99)
	changes, next2, ok := s.ChangesSince(next, nil)
	if !ok || len(changes) != 1 || changes[0].Name != "hot" || next2 != next+1 {
		t.Fatalf("post-resync catch-up: %+v next=%d ok=%v", changes, next2, ok)
	}

	// Exactly JournalCap behind is still recoverable (boundary).
	s2 := New()
	commitN(t, s2, "j", JournalCap)
	if changes, _, ok := s2.ChangesSince(0, nil); !ok || len(changes) != JournalCap {
		t.Fatalf("cursor exactly JournalCap behind: len=%d ok=%v", len(changes), ok)
	}
}

func TestJournalRestoreInvalidatesAllCursors(t *testing.T) {
	s := New()
	s.CommitRunning("a", committed(config.Doc{}), 1)
	_, cursor, ok := s.ChangesSince(0, nil)
	if !ok {
		t.Fatal("setup")
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// The pre-restore cursor must be told to resync even though "nothing
	// changed": Restore restamped every revision.
	_, next, ok := s.ChangesSince(cursor, nil)
	if ok {
		t.Fatal("pre-restore cursor survived Restore")
	}
	// The post-restore cursor is stable: no phantom resync loop.
	if changes, next2, ok := s.ChangesSince(next, nil); !ok || len(changes) != 0 || next2 != next {
		t.Fatalf("post-restore cursor unstable: %+v next=%d ok=%v", changes, next2, ok)
	}
	// And new commits flow normally.
	s.CommitRunning("b", committed(config.Doc{}), 1)
	if changes, _, ok := s.ChangesSince(next, nil); !ok || len(changes) != 1 || changes[0].Name != "b" {
		t.Fatalf("post-restore commit not journaled: %+v ok=%v", changes, ok)
	}
}

func TestJournalReusesCallerBuffer(t *testing.T) {
	s := New()
	commitN(t, s, "a", 3)
	buf := make([]Change, 0, 8)
	changes, _, ok := s.ChangesSince(0, buf)
	if !ok || len(changes) != 3 {
		t.Fatalf("changes = %+v", changes)
	}
	if &changes[0] != &buf[:1][0] {
		t.Fatal("ChangesSince did not append into the caller's buffer")
	}
}

// TestJournalConcurrentCommitsNeverLost: a consumer polling ChangesSince
// while writers commit sees every commit exactly once (per name counts
// line up) as long as it never overflows. Run under -race by the tier-1
// gate.
func TestJournalConcurrentCommitsNeverLost(t *testing.T) {
	s := New()
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("job%d", w)
			for i := 0; i < perWriter; i++ {
				s.CommitRunning(name, committed(config.Doc{"i": int64(i)}), int64(i+1))
			}
		}(w)
	}
	seen := make(map[string]int)
	var cursor uint64
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var buf []Change
	poll := func() {
		var ok bool
		buf, cursor, ok = s.ChangesSince(cursor, buf[:0])
		if !ok {
			t.Error("consumer overflowed (writers outpaced JournalCap)")
			return
		}
		var last uint64
		for _, ch := range buf {
			if ch.Seq <= last {
				t.Errorf("out-of-order seq %d after %d", ch.Seq, last)
			}
			last = ch.Seq
			seen[ch.Name]++
		}
	}
	for {
		select {
		case <-done:
			poll()
			for w := 0; w < writers; w++ {
				name := fmt.Sprintf("job%d", w)
				if seen[name] != perWriter {
					t.Fatalf("consumer saw %d commits for %s, want %d", seen[name], name, perWriter)
				}
			}
			return
		default:
			poll()
		}
	}
}
