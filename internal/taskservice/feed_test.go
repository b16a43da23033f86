package taskservice

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/wire"
)

func feedTestClock() simclock.Clock {
	return simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
}

func feedJobDoc(name string, tasks, version int) config.Doc {
	return config.Doc{
		"name":      name,
		"taskCount": int64(tasks),
		"package":   config.Doc{"name": "tailer", "version": fmt.Sprintf("v%d", version)},
		"taskResources": config.Doc{
			"cpuCores":    0.5,
			"memoryBytes": int64(1 << 29),
		},
		"input": config.Doc{"category": name + "_in", "partitions": int64(16)},
	}
}

// feedHarness is a Job Store + feed server + local Task Service + one
// remote FeedClient over the loopback transport, all sharing one clock.
type feedHarness struct {
	store  *jobstore.Store
	feed   *jobservice.SpecFeedServer
	local  *Service
	remote *FeedClient
}

func newFeedHarness(t *testing.T, shards int) *feedHarness {
	t.Helper()
	clk := feedTestClock()
	store := jobstore.New()
	feed := jobservice.NewSpecFeed(store)
	return &feedHarness{
		store:  store,
		feed:   feed,
		local:  New(store, clk, 90*time.Second, shards),
		remote: NewFeedClient(feed.Loopback(), "remote-ts", clk, 90*time.Second, shards),
	}
}

func (h *feedHarness) commit(t *testing.T, name string, tasks, version int) {
	t.Helper()
	if err := h.store.CommitRunning(name, feedJobDoc(name, tasks, version), int64(version)); err != nil {
		t.Fatal(err)
	}
}

func (h *feedHarness) mustConverge(t *testing.T) {
	t.Helper()
	if err := h.remote.Sync(0); err != nil {
		t.Fatal(err)
	}
	// The local service serves TTL-cached snapshots by design (commits
	// alone do not invalidate); force a fresh reference index so the
	// identity check compares current truth, not two equally stale caches.
	h.local.Invalidate()
	if !IndexEqual(h.local.Index(), h.remote.Index()) {
		t.Fatal("remote index diverged from local index")
	}
}

func TestFeedClientMirrorsFleet(t *testing.T) {
	h := newFeedHarness(t, 8)
	for i := 0; i < 6; i++ {
		h.commit(t, fmt.Sprintf("jobs/j%02d", i), 4, 1)
	}
	h.mustConverge(t)
	if got := h.remote.Index().Len(); got != 24 {
		t.Fatalf("remote index holds %d tasks, want 24", got)
	}

	// Update, add, drop — one pump cycle picks all of it up.
	h.commit(t, "jobs/j00", 6, 2)
	h.commit(t, "jobs/new", 2, 1)
	h.store.DropRunning("jobs/j05")
	h.mustConverge(t)
	if got := h.remote.Index().Len(); got != 24+2+2-4 {
		t.Fatalf("remote index holds %d tasks after churn, want 24", got)
	}
}

// TestFeedRestoreTriggersExactlyOneResync: Restore burns a journal
// sequence to invalidate every outstanding cursor. A remote subscriber
// must observe exactly one resync-needed redirect, walk the fleet once,
// and NOT loop. Restore restamps every running revision (the store's
// rebuild-don't-trust contract), so the walk re-commits each entry
// exactly once; what must not happen is a second redirect.
func TestFeedRestoreTriggersExactlyOneResync(t *testing.T) {
	h := newFeedHarness(t, 8)
	for i := 0; i < 5; i++ {
		h.commit(t, fmt.Sprintf("jobs/j%02d", i), 4, 1)
	}
	h.mustConverge(t)

	snap, err := h.store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.store.Restore(snap); err != nil {
		t.Fatal(err)
	}

	applied := h.remote.Stats().Applied
	h.mustConverge(t)
	st := h.remote.Stats()
	if st.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want exactly 1", st.Resyncs)
	}
	if st.Applied != applied+5 {
		t.Fatalf("resync applied %d entries, want 5 (every restamped revision, once)", st.Applied-applied)
	}

	// No phantom loop: further pumps stay in delta mode.
	for i := 0; i < 3; i++ {
		done, err := h.remote.Pump()
		if err != nil {
			t.Fatal(err)
		}
		if !done {
			t.Fatalf("pump %d not done after convergence", i)
		}
	}
	if got := h.remote.Stats().Resyncs; got != 1 {
		t.Fatalf("resyncs grew to %d after convergence", got)
	}
}

// TestFeedOverflowMidPaginationNoTornDelta: a client paginating with
// tiny batches (SetMaxEntries(1)) while the journal overflows under it
// must never apply a torn window — it redirects onto a resync and
// converges to the exact fleet.
func TestFeedOverflowMidPaginationNoTornDelta(t *testing.T) {
	h := newFeedHarness(t, 8)
	h.remote.SetMaxEntries(1)
	for i := 0; i < 4; i++ {
		h.commit(t, fmt.Sprintf("jobs/j%02d", i), 4, 1)
	}
	// First bounded pump applies exactly one entry.
	if done, err := h.remote.Pump(); err != nil || done {
		t.Fatalf("pump = (%v, %v)", done, err)
	}
	if got := h.remote.Stats().Applied; got != 1 {
		t.Fatalf("applied = %d, want 1", got)
	}

	// Overflow the journal mid-pagination: the client's cursor (1 entry
	// in) falls off the ring.
	for i := 0; i < jobstore.JournalCap+4; i++ {
		h.commit(t, "jobs/burn", 2, i+2)
	}
	h.store.DropRunning("jobs/burn")

	h.mustConverge(t)
	st := h.remote.Stats()
	if st.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", st.Resyncs)
	}
	// The mirror matches the fleet exactly: 4 jobs, no burn remnants.
	if names := h.remote.Mirror().RunningNames(); len(names) != 4 {
		t.Fatalf("mirror holds %v, want the 4 jobs", names)
	}
	if got := h.remote.Index().Len(); got != 16 {
		t.Fatalf("remote index holds %d tasks, want 16", got)
	}
}

// TestFeedChurnMatrixByteIdentity drives a seeded churn matrix —
// commits, version bumps, task-count changes, drops, re-adds, and a
// forced journal overflow — pumping the remote after every step and
// checking the remote index is identical, spec for spec and field for
// field (IndexEqual), to the local one. Run with -race to exercise the
// reader seams.
func TestFeedChurnMatrixByteIdentity(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := newFeedHarness(t, shards)
			const jobs = 20
			rng := uint64(0x9E3779B97F4A7C15)
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < jobs; i++ {
				h.commit(t, fmt.Sprintf("jobs/j%02d", i), 2+next(6), 1)
			}
			h.mustConverge(t)

			for step := 0; step < 120; step++ {
				name := fmt.Sprintf("jobs/j%02d", next(jobs))
				switch next(5) {
				case 0, 1: // version bump
					h.commit(t, name, 2+next(6), 2+step)
				case 2: // task-count change
					h.commit(t, name, 1+next(8), 2+step)
				case 3: // drop
					h.store.DropRunning(name)
				case 4: // re-add (or fresh commit)
					h.commit(t, name, 2+next(4), 2+step)
				}
				if step%3 == 0 { // pump mid-churn at varying lag
					if _, err := h.remote.Pump(); err != nil {
						t.Fatal(err)
					}
				}
				if step == 60 {
					// Forced journal overflow mid-matrix.
					for i := 0; i < jobstore.JournalCap+10; i++ {
						h.commit(t, "jobs/churn-burn", 1, i+1)
					}
					h.store.DropRunning("jobs/churn-burn")
				}
				if step%10 == 9 {
					h.mustConverge(t)
				}
			}
			h.mustConverge(t)
			if h.remote.Stats().Resyncs < 1 {
				t.Fatal("matrix never exercised the resync path")
			}
			if h.remote.Stats().Skipped < 1 {
				t.Fatal("matrix never exercised the revision-dedup skip path")
			}

			// Mirror store contents equal the source running table.
			names := h.store.RunningNames()
			mnames := h.remote.Mirror().RunningNames()
			if len(names) != len(mnames) {
				t.Fatalf("mirror names %v != source %v", mnames, names)
			}
			for i, n := range names {
				if mnames[i] != n {
					t.Fatalf("mirror names %v != source %v", mnames, names)
				}
				cfg, version, _, ok := h.store.RunningEntry(n)
				mcfg, mversion, _, mok := h.remote.Mirror().RunningEntry(n)
				if !ok || !mok || version != mversion || !config.Equal(cfg, mcfg) {
					t.Fatalf("mirror entry %s diverged", n)
				}
			}
		})
	}
}

// TestFeedClientRejectsModeMismatches: a delta frame mid-resync or a
// chunk frame in delta mode is a protocol violation, not silently
// applied state.
func TestFeedClientRejectsModeMismatches(t *testing.T) {
	h := newFeedHarness(t, 4)
	h.commit(t, "jobs/a", 2, 1)

	// Hand-feed a chunk frame to a delta-mode client.
	var e wire.Encoder
	mark, countMark := e.AppendResyncChunkHeader(true)
	if err := e.AppendChunkItem("jobs/a", 1, 1, config.Doc{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	e.PatchChunkCount(countMark, 1)
	e.EndFrame(mark)
	c := NewFeedClient(&fakeFeed{frame: e.Buf}, "x", feedTestClock(), 90*time.Second, 4)
	if _, err := c.Pump(); err == nil {
		t.Fatal("chunk frame in delta mode did not error")
	}

	// And an unknown frame kind.
	e.Reset()
	m := e.BeginFrame(0x7F)
	e.Buf = append(e.Buf, 1)
	e.EndFrame(m)
	c = NewFeedClient(&fakeFeed{frame: e.Buf}, "x", feedTestClock(), 90*time.Second, 4)
	if _, err := c.Pump(); err == nil {
		t.Fatal("unknown frame kind did not error")
	}
}

type fakeFeed struct{ frame []byte }

func (f *fakeFeed) PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error) {
	return append(buf, f.frame...), nil
}
