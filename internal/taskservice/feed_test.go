package taskservice

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
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
	// The replica matches the fleet exactly: 4 jobs, no burn remnants.
	if names := h.remote.rep.RunningNames(); len(names) != 4 {
		t.Fatalf("replica holds %v, want the 4 jobs", names)
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

			h.checkReplica(t)
		})
	}
}

// checkReplica fails unless the replica holds exactly the source's
// running table: the same names, the same version per name, and per name
// the config JobConfigFromDoc decodes from the source's running document
// (nil where it fails).
func (h *feedHarness) checkReplica(t *testing.T) {
	t.Helper()
	names, rnames := h.store.RunningNames(), h.remote.rep.RunningNames()
	if !slices.Equal(names, rnames) {
		t.Fatalf("replica names %v != source %v", rnames, names)
	}
	for _, n := range names {
		doc, version, _, _ := h.store.RunningEntry(n)
		row := h.remote.rep.rows[n]
		want, err := config.JobConfigFromDoc(doc)
		if row.version != version || (row.cfg == nil) != (err != nil) ||
			(row.cfg != nil && !reflect.DeepEqual(row.cfg, want)) {
			t.Fatalf("replica row %s = version %d, %+v; source version %d, %+v (%v)", n, row.version, row.cfg, version, want, err)
		}
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

// switchFeed serves inner's replies until frame is set, then frame.
type switchFeed struct {
	inner SpecFeed
	frame []byte
}

func (f *switchFeed) PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error) {
	if f.frame != nil {
		return append(buf, f.frame...), nil
	}
	return f.inner.PollFeed(req, buf)
}

// TestFeedClientRejectsDuplicateDocKeys: a delta entry whose document
// repeats a key — each key and value well formed, only their order
// broken — is a feed error that leaves the replica and the cursor as
// they were.
func TestFeedClientRejectsDuplicateDocKeys(t *testing.T) {
	h := newFeedHarness(t, 4)
	h.commit(t, "jobs/a", 2, 1)
	feed := &switchFeed{inner: h.feed.Loopback()}
	c := NewFeedClient(feed, "x", feedTestClock(), 90*time.Second, 4)
	if err := c.Sync(0); err != nil {
		t.Fatal(err)
	}
	c.Index() // hands the touched set over to the Service

	// Encode {"name": …, "namf": …}, then rename "namf" to "name".
	var e wire.Encoder
	mark := e.AppendDeltaHeader(c.Cursor()+1, 1)
	if err := e.AppendDeltaCommit("jobs/a", 99, 2, config.Doc{"name": "jobs/a", "namf": "jobs/b"}); err != nil {
		t.Fatal(err)
	}
	e.EndFrame(mark)
	i := bytes.LastIndex(e.Buf, []byte("namf"))
	e.Buf[i+3] = 'e'
	feed.frame = e.Buf

	rows, cursor, rev := maps.Clone(c.rep.rows), c.Cursor(), c.rep.rev
	if _, err := c.Pump(); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("pump err = %v, want wire.ErrMalformed", err)
	}
	if !reflect.DeepEqual(c.rep.rows, rows) || c.Cursor() != cursor || c.rep.rev != rev || len(c.rep.touched) != 0 {
		t.Fatal("a malformed delta changed the replica")
	}
}

// TestFeedPumpConcurrentIndex pumps fleet-wide releases in small frames
// while two readers fetch the index, so the Service's pool workers read
// replica rows as Pump writes them. Run with -race.
func TestFeedPumpConcurrentIndex(t *testing.T) {
	h := newFeedHarness(t, 16)
	const jobs = 64 // past the pool's inline threshold
	for i := 0; i < jobs; i++ {
		h.commit(t, fmt.Sprintf("jobs/j%02d", i), 2, 1)
	}
	h.mustConverge(t)
	h.remote.SetMaxEntries(24)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if idx := h.remote.Index(); idx.Len() == 0 {
					t.Error("remote index emptied mid-release")
					return
				}
			}
		}()
	}
	for v := 2; v <= 6; v++ {
		for i := 0; i < jobs; i++ {
			h.commit(t, fmt.Sprintf("jobs/j%02d", i), 1+v%3, v)
		}
		if err := h.remote.Sync(0); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	h.mustConverge(t)
	h.checkReplica(t)
}

// replicaBytesPerJobCeiling bounds the live heap a FeedClient holds per
// replicated job: its row, the row's key and the decoded JobConfig with
// its strings: ≈ 480 B measured for feedJobDoc on amd64. Mirroring the
// documents into a Job Store cost ≈ 1 780 B per job by the same measure.
const replicaBytesPerJobCeiling = 560

// TestFeedReplicaBytesPerJob syncs a fresh FeedClient over a fleet and
// holds the live heap it adds, less its reused frame buffer, to the
// ceiling per job.
func TestFeedReplicaBytesPerJob(t *testing.T) {
	const jobs = 4000
	h := newFeedHarness(t, 64)
	for i := 0; i < jobs; i++ {
		h.commit(t, fmt.Sprintf("jobs/j%05d", i), 4, 1)
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// A first client warms the server's frame cache, so the second one's
	// heap is its own.
	if err := NewFeedClient(h.feed.Loopback(), "warm", feedTestClock(), 90*time.Second, 64).Sync(0); err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	c := NewFeedClient(h.feed.Loopback(), "bytes", feedTestClock(), 90*time.Second, 64)
	if err := c.Sync(0); err != nil {
		t.Fatal(err)
	}
	// Hand the touched set over as the Service would, without building
	// the index, whose specs are not the replica's.
	c.rep.ChangesSince(0, nil)
	held := int64(liveHeap()-base) - int64(cap(c.buf))
	perJob := float64(held) / jobs
	t.Logf("replica of %d jobs: %d B, %.0f B/job", jobs, held, perJob)
	if c.rep.size() != jobs {
		t.Fatalf("replica holds %d jobs, want %d", c.rep.size(), jobs)
	}
	if perJob > replicaBytesPerJobCeiling {
		t.Fatalf("the replica holds %.0f B of live heap per job, ceiling %d", perJob, replicaBytesPerJobCeiling)
	}
	runtime.KeepAlive(c)
}
