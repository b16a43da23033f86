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
// remote FeedClient polling the server through a pager, all sharing one
// clock.
type feedHarness struct {
	store  *jobstore.Store
	feed   *jobservice.SpecFeedServer
	pager  *maxFeed
	local  *Service
	remote *FeedClient
}

func newFeedHarness(t *testing.T, shards int) *feedHarness {
	t.Helper()
	clk := feedTestClock()
	store := jobstore.New()
	feed := jobservice.NewSpecFeed(store)
	pager := &maxFeed{inner: feed}
	return &feedHarness{
		store:  store,
		feed:   feed,
		pager:  pager,
		local:  New(store, clk, 90*time.Second, shards),
		remote: NewFeedClient(pager, "remote-ts", clk, 90*time.Second, shards),
	}
}

// maxFeed bounds every poll to max entries per frame (0: the server's
// batch), as the fault injector's partial batches do: tests page through
// it.
type maxFeed struct {
	inner SpecFeed
	max   int
}

func (f *maxFeed) PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error) {
	req.Max = f.max
	return f.inner.PollFeed(req, buf)
}

func (h *feedHarness) commit(t *testing.T, name string, tasks, version int) {
	t.Helper()
	if err := h.store.CommitRunning(name, committed(feedJobDoc(name, tasks, version)), int64(version)); err != nil {
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

// TestFeedNoJobConfigRunsNoTasks: a running document that is no
// JobConfig has no typed config in the store; the feed sends it as the
// empty document, and both Task Services give the job an empty group —
// through a delta, and through the resync walk after a Restore.
func TestFeedNoJobConfigRunsNoTasks(t *testing.T) {
	h := newFeedHarness(t, 8)
	h.commit(t, "jobs/a", 4, 1)
	if err := h.store.CommitRunning("jobs/b", committed(config.Doc{"taskCount": "four"}), 1); err != nil {
		t.Fatal(err)
	}
	h.mustConverge(t)
	if got := h.remote.Index().Len(); got != 4 {
		t.Fatalf("remote index holds %d tasks, want jobs/a's 4", got)
	}
	h.checkReplica(t)

	data, err := h.store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.store.Restore(data); err != nil {
		t.Fatal(err)
	}
	h.mustConverge(t)
	if h.remote.Stats().Resyncs == 0 {
		t.Fatal("the restore did not send the subscriber through a resync walk")
	}
	h.checkReplica(t)
}

// TestFeedServesPastFullRegistry: the feed server's subscriber registry
// is bounded by count, and it is status only. A remote Task Service that
// first polls once the registry is full stays out of it — every one of
// its polls counts as Unregistered — and still mirrors the fleet exactly,
// through a full-resync walk and the deltas after it.
func TestFeedServesPastFullRegistry(t *testing.T) {
	h := newFeedHarness(t, 8)
	for i := 0; i < 6; i++ {
		h.commit(t, fmt.Sprintf("jobs/j%02d", i), 4, 1)
	}
	for i := 0; h.feed.Stats().Unregistered == 0; i++ {
		if i == 1<<16 {
			t.Fatal("the subscriber registry took 65 536 names")
		}
		if _, err := h.feed.PollFeed(wire.FeedRequest{Subscriber: fmt.Sprintf("filler-%05d", i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	registered, unregistered := len(h.feed.Subscribers()), h.feed.Stats().Unregistered

	h.mustConverge(t)
	h.commit(t, "jobs/j00", 6, 2)
	h.store.DropRunning("jobs/j05")
	h.mustConverge(t)
	if got := h.remote.Index().Len(); got != 24+2-4 {
		t.Fatalf("remote index holds %d tasks, want 22", got)
	}
	if got := len(h.feed.Subscribers()); got != registered {
		t.Fatalf("registry grew from %d to %d subscribers", registered, got)
	}
	if got := h.feed.Stats().Unregistered - unregistered; got < 2 {
		t.Fatalf("%d of the remote's polls counted as Unregistered over two syncs", got)
	}
}

// TestFeedRestoreTriggersExactlyOneResync: Restore burns a journal
// sequence to invalidate every outstanding cursor. A remote subscriber
// must observe exactly one redirect, walk the fleet once,
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

// restartableFeed is one address in front of a feed server process that
// can be replaced, as a restarted turbinectl serve-feed is.
type restartableFeed struct{ srv SpecFeed }

func (f *restartableFeed) PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error) {
	return f.srv.PollFeed(req, buf)
}

// TestFeedClientFollowsRestartedServer: a subscriber whose feed server
// is replaced by one over another store — a serve-feed restarted on
// another snapshot behind the same address — converges to the new store,
// although the new server's journal head and revisions equal the ones
// the subscriber holds: caught up, or mid-walk in one-entry pages. Both
// stores are built directly and, as a serve-feed start builds them, by
// Restore of a snapshot. A reader fetches the index meanwhile (run with
// -race).
func TestFeedClientFollowsRestartedServer(t *testing.T) {
	for _, tc := range []struct{ restored, midWalk bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		restored, midWalk := tc.restored, tc.midWalk
		t.Run(fmt.Sprintf("restored=%v/midWalk=%v", restored, midWalk), func(t *testing.T) {
			storeAt := func(version int) *jobstore.Store {
				s := jobstore.New()
				for _, name := range []string{"j", "k"} {
					if err := s.CommitRunning(name, committed(feedJobDoc(name, 4, version)), int64(version)); err != nil {
						t.Fatal(err)
					}
				}
				if !restored {
					return s
				}
				data, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				r := jobstore.New()
				if err := r.Restore(data); err != nil {
					t.Fatal(err)
				}
				return r
			}
			a, b := storeAt(1), storeAt(2)
			if a.JournalHead() != b.JournalHead() {
				t.Fatalf("journal heads %d and %d: the stores must look alike to a cursor", a.JournalHead(), b.JournalHead())
			}
			feed := &restartableFeed{srv: jobservice.NewSpecFeed(a)}
			pager := &maxFeed{inner: feed}
			c := NewFeedClient(pager, "x", feedTestClock(), 90*time.Second, 4)
			pkg := func() string {
				t.Helper()
				if err := c.Sync(0); err != nil {
					t.Fatal(err)
				}
				cfg, _, ok := c.rep.RunningEntry("j")
				if !ok || cfg == nil {
					t.Fatalf("replica row of j: %+v, %v", cfg, ok)
				}
				return cfg.Package.Version
			}
			if got := pkg(); got != "v1" {
				t.Fatalf("before the restart the replica runs %s, want v1", got)
			}
			resyncs, want := c.Stats().Resyncs, int64(1)
			if midWalk {
				// A Restore burns the client's cursor on a: a redirect and
				// one page of the walk leave it mid-walk.
				data, err := a.Snapshot()
				if err == nil {
					err = a.Restore(data)
				}
				if err != nil {
					t.Fatal(err)
				}
				pager.max = 1
				for range 2 {
					if _, err := c.Pump(); err != nil {
						t.Fatal(err)
					}
				}
				if !c.resync {
					t.Fatal("the client is not mid-walk")
				}
				want++
			}

			feed.srv = jobservice.NewSpecFeed(b)
			var stop atomic.Bool
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				for !stop.Load() {
					c.Service().Invalidate()
					c.Index()
				}
			}()
			t.Cleanup(func() { stop.Store(true); reader.Wait() })
			if got := pkg(); got != "v2" {
				t.Fatalf("after the restart the replica runs %s, want the new server's v2", got)
			}
			if got := c.Stats().Resyncs - resyncs; got != want {
				t.Fatalf("%d resyncs, want %d", got, want)
			}
			local := New(b, feedTestClock(), 90*time.Second, 4)
			if !IndexEqual(local.Index(), c.Index()) {
				t.Fatal("remote index differs from the new server's store")
			}
		})
	}
}

// TestFeedOverflowMidPaginationNoTornDelta: a client paginating with
// tiny batches (one entry a frame) while the journal overflows under it
// must never apply a torn window — it redirects onto a resync and
// converges to the exact fleet.
func TestFeedOverflowMidPaginationNoTornDelta(t *testing.T) {
	h := newFeedHarness(t, 8)
	h.pager.max = 1
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
// running table: the same names, and per name the source's running config — or, where the source's document is no
// JobConfig, the zero config, which the empty document it travels as
// decodes to: neither runs a task.
func (h *feedHarness) checkReplica(t *testing.T) {
	t.Helper()
	names, rnames := h.store.RunningNames(), h.remote.rep.RunningNames()
	if !slices.Equal(names, rnames) {
		t.Fatalf("replica names %v != source %v", rnames, names)
	}
	for _, n := range names {
		want, _, _ := h.store.RunningEntry(n)
		if want == nil {
			want = &config.JobConfig{}
		}
		if row := h.remote.rep.rows[n]; !reflect.DeepEqual(row.cfg, want) {
			t.Fatalf("replica row %s = %+v; source %+v", n, row.cfg, want)
		}
	}
}

// TestFeedClientRejectsModeMismatches: a redirect mid-walk, or a frame
// of a kind the feed never sends, is a protocol violation, not silently
// applied state.
func TestFeedClientRejectsModeMismatches(t *testing.T) {
	// A redirect begins a walk; a second one before the walk ends errs
	// and leaves the walk where it was.
	var e wire.Encoder
	e.AppendRedirect(1, 7)
	c := NewFeedClient(&fakeFeed{frame: e.Buf}, "x", feedTestClock(), 90*time.Second, 4)
	if done, err := c.Pump(); err != nil || done {
		t.Fatalf("first redirect: pump = (%v, %v)", done, err)
	}
	if _, err := c.Pump(); err == nil {
		t.Fatal("redirect mid-walk did not error")
	}
	if st := c.Stats(); st.Resyncs != 1 || !c.resync || c.Cursor() != 7 {
		t.Fatalf("after the rejected redirect: resyncs %d, walking %v, cursor %d", st.Resyncs, c.resync, c.Cursor())
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

// TestFeedWalkPageCarriesDrops: a walk page is a delta, so a name the
// server found dropped after taking the page's name list arrives as a
// drop: it applies (and counts in Applied) like any delta drop, and the
// walk still resumes after it and ends at the first empty page.
func TestFeedWalkPageCarriesDrops(t *testing.T) {
	frame := func(build func(e *wire.Encoder)) []byte {
		var e wire.Encoder
		build(&e)
		return e.Buf
	}
	feed := &scriptFeed{frames: [][]byte{
		frame(func(e *wire.Encoder) { e.AppendRedirect(1, 5) }),
		frame(func(e *wire.Encoder) {
			mark := e.AppendDeltaHeader(1, 5, 2)
			e.AppendDeltaCommit("jobs/a", 1, &config.JobConfig{Name: "jobs/a"})
			e.AppendDeltaDrop("jobs/b")
			e.EndFrame(mark)
		}),
		frame(func(e *wire.Encoder) { e.EndFrame(e.AppendDeltaHeader(1, 5, 0)) }),
		frame(func(e *wire.Encoder) { e.EndFrame(e.AppendDeltaHeader(1, 5, 0)) }),
	}}
	c := NewFeedClient(feed, "x", feedTestClock(), 90*time.Second, 4)
	if err := c.Sync(len(feed.frames)); err != nil {
		t.Fatal(err)
	}
	if got := c.rep.RunningNames(); !slices.Equal(got, []string{"jobs/a"}) {
		t.Fatalf("replica holds %v, want [jobs/a]", got)
	}
	if st := c.Stats(); st.Applied != 2 || st.Resyncs != 1 || c.Cursor() != 5 {
		t.Fatalf("stats %+v cursor %d: want 2 applied, 1 resync, cursor 5", st, c.Cursor())
	}
	want := []wire.FeedRequest{
		{Cursor: 0},
		{Incarnation: 1, Cursor: 5, Resync: true},
		{Incarnation: 1, Cursor: 5, Resync: true, ResumeAfter: "jobs/b"},
		{Incarnation: 1, Cursor: 5},
	}
	for i := range want {
		want[i].Subscriber = "x"
	}
	if !slices.Equal(feed.reqs, want) {
		t.Fatalf("requests %+v, want %+v", feed.reqs, want)
	}
}

// scriptFeed serves its frames in order and records each request.
type scriptFeed struct {
	frames [][]byte
	reqs   []wire.FeedRequest
}

func (f *scriptFeed) PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error) {
	if len(f.reqs) == len(f.frames) {
		return nil, errors.New("script exhausted")
	}
	f.reqs = append(f.reqs, req)
	return append(buf, f.frames[len(f.reqs)-1]...), nil
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
	feed := &switchFeed{inner: h.feed}
	c := NewFeedClient(feed, "x", feedTestClock(), 90*time.Second, 4)
	if err := c.Sync(0); err != nil {
		t.Fatal(err)
	}
	c.Index() // hands the touched set over to the Service

	// Encode {"operator": …, "priority": …}, then rename "priority" to
	// "operator".
	var e wire.Encoder
	mark := e.AppendDeltaHeader(c.inc, c.Cursor()+1, 1)
	e.AppendDeltaCommit("jobs/a", 99, &config.JobConfig{Operator: config.OpTailer, Priority: 1})
	e.EndFrame(mark)
	i := bytes.LastIndex(e.Buf, []byte("priority"))
	copy(e.Buf[i:], "operator")
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
	h.pager.max = 24

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
	if err := NewFeedClient(h.feed, "warm", feedTestClock(), 90*time.Second, 64).Sync(0); err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	c := NewFeedClient(h.feed, "bytes", feedTestClock(), 90*time.Second, 64)
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
