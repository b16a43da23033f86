package jobservice

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/jobstore"
	"repro/internal/wire"
)

func feedDoc(name string, version int) config.Doc {
	return config.Doc{
		"name":      name,
		"taskCount": int64(4),
		"package":   config.Doc{"name": "tailer", "version": fmt.Sprintf("v%d", version)},
	}
}

func commitN(t testing.TB, store *jobstore.Store, n, version int) {
	t.Helper()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("jobs/j%04d", i)
		if err := store.CommitRunning(name, committed(feedDoc(name, version)), int64(version)); err != nil {
			t.Fatal(err)
		}
	}
}

func pollDelta(t *testing.T, f *SpecFeedServer, req wire.FeedRequest) (wire.Delta, []byte) {
	t.Helper()
	frame, err := f.PollFeed(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	kind, body, rest, err := wire.DecodeFrame(frame)
	if err != nil || len(rest) != 0 {
		t.Fatalf("frame: err=%v rest=%d", err, len(rest))
	}
	if kind != wire.FrameDelta {
		t.Fatalf("kind = 0x%02x, want delta", kind)
	}
	d, err := wire.DecodeDelta(body)
	if err != nil {
		t.Fatal(err)
	}
	return d, frame
}

func TestFeedDeltaFromZero(t *testing.T) {
	store := jobstore.New()
	f := NewSpecFeed(store)
	commitN(t, store, 3, 1)
	store.DropRunning("jobs/j0001")

	d, _ := pollDelta(t, f, wire.FeedRequest{Subscriber: "s"})
	if d.Count != 4 {
		t.Fatalf("count = %d, want 4 (3 commits + 1 drop)", d.Count)
	}
	if d.Next != store.JournalHead() {
		t.Fatalf("next = %d, head = %d", d.Next, store.JournalHead())
	}
	var commits, drops int
	for i := 0; i < d.Count; i++ {
		ent, err := d.Entry()
		if err != nil {
			t.Fatal(err)
		}
		if ent.Drop {
			drops++
			continue
		}
		commits++
		cfg, err := wire.DecodeJobConfigBlob(ent.Doc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := config.JobConfigFromDoc(feedDoc(string(ent.Name), 1))
		if err != nil || !reflect.DeepEqual(cfg, want) {
			t.Fatalf("config of %s = %+v, want %+v (%v)", ent.Name, cfg, want, err)
		}
	}
	// j0001's commit entry is served as an early drop — the job was gone
	// by the time the feed read it, and its real drop entry follows.
	if commits != 2 || drops != 2 {
		t.Fatalf("commits=%d drops=%d, want 2/2", commits, drops)
	}

	// Caught up: next poll at the new cursor is empty.
	d2, _ := pollDelta(t, f, wire.FeedRequest{Subscriber: "s", Cursor: d.Next})
	if d2.Count != 0 || d2.Next != d.Next {
		t.Fatalf("converged poll = (%d, %d)", d2.Count, d2.Next)
	}
}

// TestFeedFrameCacheSharesEncodes: K subscribers at one cursor cost one
// encode; the head moving invalidates, and identical polls re-hit.
func TestFeedFrameCacheSharesEncodes(t *testing.T) {
	store := jobstore.New()
	f := NewSpecFeed(store)
	commitN(t, store, 4, 1)

	var first []byte
	for i := 0; i < 8; i++ {
		_, frame := pollDelta(t, f, wire.FeedRequest{Subscriber: fmt.Sprintf("s%d", i)})
		if first == nil {
			first = append([]byte(nil), frame...)
		} else if string(first) != string(frame) {
			t.Fatalf("subscriber %d saw different bytes", i)
		}
	}
	st := f.Stats()
	if st.FrameMisses != 1 || st.FrameHits != 7 {
		t.Fatalf("hits/misses = %d/%d, want 7/1", st.FrameHits, st.FrameMisses)
	}

	// Any head movement empties the cache.
	commitN(t, store, 1, 2)
	pollDelta(t, f, wire.FeedRequest{Subscriber: "s0"})
	st = f.Stats()
	if st.FrameMisses != 2 {
		t.Fatalf("misses = %d after head move, want 2", st.FrameMisses)
	}
}

// TestFeedPartialBatchNotCached: a Max=1 poll (the injected
// partial-batch fault) returns a bounded window and must neither be
// served from the cache nor poison it for full-batch subscribers.
func TestFeedPartialBatchNotCached(t *testing.T) {
	store := jobstore.New()
	f := NewSpecFeed(store)
	commitN(t, store, 5, 1)

	// Full-batch poll populates the cache for cursor 0.
	dFull, _ := pollDelta(t, f, wire.FeedRequest{Subscriber: "full"})
	if dFull.Count != 5 {
		t.Fatalf("full count = %d", dFull.Count)
	}
	// Partial poll at the same cursor must get its own bounded window,
	// not the cached complete frame.
	dPart, _ := pollDelta(t, f, wire.FeedRequest{Subscriber: "part", Max: 1})
	if dPart.Count != 1 {
		t.Fatalf("partial count = %d, want 1", dPart.Count)
	}
	if dPart.Next >= dFull.Next {
		t.Fatalf("partial next = %d, full next = %d", dPart.Next, dFull.Next)
	}
	// Partial windows are not cached: a full-batch poll at the partial
	// poll's cursor misses (it was never cached) and gets everything.
	dRest, _ := pollDelta(t, f, wire.FeedRequest{Subscriber: "part", Cursor: dPart.Next})
	if dRest.Count != 4 || dRest.Next != dFull.Next {
		t.Fatalf("rest = (%d, %d), want (4, %d)", dRest.Count, dRest.Next, dFull.Next)
	}
	st := f.Stats()
	if st.FrameHits != 0 {
		t.Fatalf("hits = %d, want 0 — no poll should have matched the cache", st.FrameHits)
	}
}

// TestFeedResyncWalk: an overflowed cursor redirects once, the walk
// pages the fleet in sorted order as deltas, one batch per page, up to
// the first empty page, and the adopted cursor replays everything
// committed after the redirect.
func TestFeedResyncWalk(t *testing.T) {
	store := jobstore.New()
	f := NewSpecFeed(store)
	f.batch = 2 // pages of 2, 2, 1 and 0 entries over 5 jobs
	commitN(t, store, 5, 1)

	// Burn the journal far past its capacity.
	for i := 0; i < jobstore.JournalCap+8; i++ {
		if err := store.CommitRunning("jobs/burn", committed(feedDoc("jobs/burn", i)), int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	store.DropRunning("jobs/burn")

	redirect, _ := pollDelta(t, f, wire.FeedRequest{Subscriber: "s", Cursor: 1})
	if !redirect.Redirect || redirect.Count != 0 {
		t.Fatalf("reply = %+v, want a redirect", redirect)
	}
	next := redirect.Next
	if next != store.JournalHead() {
		t.Fatalf("redirect cursor = %d, head = %d", next, store.JournalHead())
	}

	// Walk the pages.
	var walked []string
	var sizes []int
	resume := ""
	for page := 0; ; page++ {
		if page > 4 {
			t.Fatal("walk did not terminate")
		}
		d, _ := pollDelta(t, f, wire.FeedRequest{Subscriber: "s", Cursor: next, Resync: true, ResumeAfter: resume})
		if d.Redirect || d.Next != next {
			t.Fatalf("page %d = %+v, want a delta echoing cursor %d", page, d, next)
		}
		sizes = append(sizes, d.Count)
		for i := 0; i < d.Count; i++ {
			ent, err := d.Entry()
			if err != nil || ent.Drop {
				t.Fatalf("page %d entry %d = %+v (err %v), want a commit", page, i, ent, err)
			}
			walked = append(walked, string(ent.Name))
			resume = string(ent.Name)
		}
		if d.Count == 0 {
			break
		}
	}
	if !slices.Equal(sizes, []int{2, 2, 1, 0}) {
		t.Fatalf("page sizes %v, want [2 2 1 0]", sizes)
	}
	want := []string{"jobs/j0000", "jobs/j0001", "jobs/j0002", "jobs/j0003", "jobs/j0004"}
	if len(walked) != len(want) {
		t.Fatalf("walked %v, want %v", walked, want)
	}
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("walked %v, want %v", walked, want)
		}
	}

	// The adopted cursor is live: the post-walk delta poll is empty, not
	// a second redirect.
	d, _ := pollDelta(t, f, wire.FeedRequest{Subscriber: "s", Cursor: next})
	if d.Count != 0 {
		t.Fatalf("post-walk delta count = %d, want 0", d.Count)
	}
	if f.Stats().Resyncs != 1 {
		t.Fatalf("resyncs = %d, want exactly 1", f.Stats().Resyncs)
	}
}

func TestFeedSubscriberRegistry(t *testing.T) {
	store := jobstore.New()
	f := NewSpecFeed(store)
	commitN(t, store, 2, 1)

	d, _ := pollDelta(t, f, wire.FeedRequest{Subscriber: "a"})
	pollDelta(t, f, wire.FeedRequest{Subscriber: "a", Cursor: d.Next})
	pollDelta(t, f, wire.FeedRequest{Subscriber: "b"})
	commitN(t, store, 3, 2) // b is now 3 behind

	subs := f.Subscribers()
	if len(subs) != 2 || subs[0].Subscriber != "a" || subs[1].Subscriber != "b" {
		t.Fatalf("subs = %+v", subs)
	}
	if subs[0].Polls != 2 || subs[0].Cursor != d.Next {
		t.Fatalf("a = %+v", subs[0])
	}
	if subs[0].Lag != 3 || subs[1].Lag != 3+d.Next {
		t.Fatalf("lags = %d, %d", subs[0].Lag, subs[1].Lag)
	}
}

// TestFeedConvergedPollZeroAllocs: the steady state — every subscriber
// caught up, polling at head — allocates nothing per poll.
func TestFeedConvergedPollZeroAllocs(t *testing.T) {
	store := jobstore.New()
	f := NewSpecFeed(store)
	commitN(t, store, 8, 1)
	head := store.JournalHead()
	req := wire.FeedRequest{Subscriber: "s", Cursor: head}
	buf := make([]byte, 0, 256)
	if _, err := f.PollFeed(req, buf[:0]); err != nil { // warm the cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.PollFeed(req, buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("converged poll allocates %.1f/op, want 0", allocs)
	}
}
