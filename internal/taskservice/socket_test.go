package taskservice

// Satellite suite for the TCP feed binding: the reconnect × journal
// cursor edge, pinned over a real localhost socket. The invariant
// matrix:
//
//   - Disconnect, commits while dark, reconnect, journal intact
//     ⇒ session resume: zero full resyncs, byte-identical index.
//   - Disconnect, journal OVERFLOWS while dark, reconnect
//     ⇒ exactly one full resync, byte-identical index.
//   - Disconnects interleaved mid-pagination and mid-resync-walk
//     ⇒ still exactly one resync: the walk's ResumeAfter and the
//       adopted cursor survive transport errors untouched.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/wire"
)

// socketHarness is the feedHarness with a real listener + dialed
// transport pair between the pager and the server.
type socketHarness struct {
	store  *jobstore.Store
	feed   *jobservice.SpecFeedServer
	lis    *jobservice.FeedListener
	tr     *DialTransport
	pager  *maxFeed
	local  *Service
	remote *FeedClient
	clk    *simclock.Sim
}

func newSocketHarness(t *testing.T, shards int) *socketHarness {
	t.Helper()
	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	store := jobstore.New()
	feed := jobservice.NewSpecFeed(store)
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := jobservice.ServeFeed(feed, nl, jobservice.ListenerOptions{})
	t.Cleanup(func() { lis.Close() })
	tr := DialFeed(nl.Addr().String(), DialOptions{Clock: clk})
	t.Cleanup(tr.Close)
	pager := &maxFeed{inner: tr}
	return &socketHarness{
		store:  store,
		feed:   feed,
		lis:    lis,
		tr:     tr,
		pager:  pager,
		local:  New(store, clk, 90*time.Second, shards),
		remote: NewFeedClient(pager, "remote-ts", clk, 90*time.Second, shards),
		clk:    clk,
	}
}

func (h *socketHarness) commit(t *testing.T, name string, tasks, version int) {
	t.Helper()
	if err := h.store.CommitRunning(name, committed(feedJobDoc(name, tasks, version)), int64(version)); err != nil {
		t.Fatal(err)
	}
}

func (h *socketHarness) mustConverge(t *testing.T) {
	t.Helper()
	if err := h.remote.Sync(0); err != nil {
		t.Fatal(err)
	}
	// The local service serves TTL-cached snapshots by design; force a
	// fresh reference index so the comparison is against current truth.
	h.local.Invalidate()
	if !IndexEqual(h.local.Index(), h.remote.Index()) {
		t.Fatal("remote index diverged from local index across the socket")
	}
}

// overflow pushes more than JournalCap changes through the store so any
// cursor taken beforehand falls off the ring.
func (h *socketHarness) overflow(t *testing.T) {
	t.Helper()
	for v := 2; v < jobstore.JournalCap+10; v++ {
		h.commit(t, "jobs/churn", 2, v)
	}
}

// TestSocketFeedConverges: the plain path — a fleet committed server-side
// arrives byte-identical through listener, TCP, and dialed transport.
func TestSocketFeedConverges(t *testing.T) {
	h := newSocketHarness(t, 8)
	for i := 0; i < 6; i++ {
		h.commit(t, fmt.Sprintf("jobs/j%02d", i), 4, 1)
	}
	h.commit(t, "jobs/churn", 2, 1)
	h.mustConverge(t)
	if got := h.remote.Index().Len(); got != 26 {
		t.Fatalf("remote index holds %d tasks, want 26", got)
	}
	st := h.lis.Stats()
	if st.Accepted != 1 || st.Served == 0 || st.BadFrames != 0 {
		t.Fatalf("listener stats %+v", st)
	}
	if ds := h.tr.Stats(); ds.TornFrames != 0 || ds.Reconnects != 0 {
		t.Fatalf("dial stats %+v", ds)
	}
}

// TestSocketReconnectResumesWithoutResync: disconnect, commits land
// while dark, reconnect with the journal intact — the cursor rides the
// first request of the new conn, so the delta stream resumes where it
// left off: one reconnect, ZERO resyncs.
func TestSocketReconnectResumesWithoutResync(t *testing.T) {
	h := newSocketHarness(t, 8)
	h.commit(t, "jobs/churn", 2, 1)
	for i := 0; i < 4; i++ {
		h.commit(t, fmt.Sprintf("jobs/j%02d", i), 4, 1)
	}
	h.mustConverge(t)

	h.tr.Close()
	h.commit(t, "jobs/churn", 3, 2)
	h.commit(t, "jobs/new", 2, 1)
	h.store.DropRunning("jobs/j03")
	h.mustConverge(t)

	ds := h.tr.Stats()
	if ds.Reconnects != 1 {
		t.Fatalf("%d reconnects, want 1", ds.Reconnects)
	}
	if rs := h.remote.Stats().Resyncs; rs != 0 {
		t.Fatalf("%d full resyncs after an intact-journal reconnect, want 0", rs)
	}
	if fs := h.feed.Stats(); fs.Resyncs != 0 {
		t.Fatalf("server served %d resync redirects, want 0", fs.Resyncs)
	}
}

// TestSocketReconnectAfterOverflowResyncsOnce: the journal overflows
// while the client is dark, so the stale cursor cannot be served — the
// reconnect costs exactly ONE full resync, and the walked index is
// byte-identical to the local one.
func TestSocketReconnectAfterOverflowResyncsOnce(t *testing.T) {
	h := newSocketHarness(t, 8)
	h.commit(t, "jobs/churn", 2, 1)
	for i := 0; i < 4; i++ {
		h.commit(t, fmt.Sprintf("jobs/j%02d", i), 4, 1)
	}
	h.mustConverge(t)

	h.tr.Close()
	h.overflow(t)
	h.mustConverge(t)

	if rs := h.remote.Stats().Resyncs; rs != 1 {
		t.Fatalf("%d full resyncs after an overflow reconnect, want exactly 1", rs)
	}
	if ds := h.tr.Stats(); ds.Reconnects != 1 {
		t.Fatalf("%d reconnects, want 1", ds.Reconnects)
	}
}

// TestSocketDisconnectStormMidResync: the harshest interleaving —
// overflow forces a resync, the walk is clamped to one entry per
// frame, and the connection is cut every few polls mid-walk. ResumeAfter
// and the adopted cursor survive each cut, so the walk completes without
// a second redirect and the index is still byte-identical.
func TestSocketDisconnectStormMidResync(t *testing.T) {
	h := newSocketHarness(t, 8)
	for i := 0; i < 6; i++ {
		h.commit(t, fmt.Sprintf("jobs/j%02d", i), 3, 1)
	}
	h.commit(t, "jobs/churn", 2, 1)
	h.mustConverge(t)

	h.tr.Close()
	h.overflow(t)
	h.pager.max = 1 // paginate: one entry per frame

	polls := 0
	for {
		done, err := h.remote.Pump()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if polls++; polls > 200 {
			t.Fatal("walk did not converge within 200 polls")
		}
		if polls%3 == 0 {
			h.tr.Close() // cut the conn mid-walk; next pump redials
		}
	}
	h.local.Invalidate()
	if !IndexEqual(h.local.Index(), h.remote.Index()) {
		t.Fatal("remote index diverged after the storm")
	}
	if rs := h.remote.Stats().Resyncs; rs != 1 {
		t.Fatalf("%d resyncs, want exactly 1 — mid-walk cuts must resume, not restart", rs)
	}
	if ds := h.tr.Stats(); ds.Reconnects < 3 {
		t.Fatalf("%d reconnects, want several (the storm did not bite)", ds.Reconnects)
	}
}

// TestSocketWalkPastLongestName: a job with the longest name Validate
// admits ends a walk page, so the next walk request carries it as
// ResumeAfter, from a subscriber whose ID is as long as NewFeedClient
// admits. The listener must take that request: the walk converges with
// one resync and no bad frame.
func TestSocketWalkPastLongestName(t *testing.T) {
	h := newSocketHarness(t, 8)
	h.remote = NewFeedClient(h.pager, strings.Repeat("s", config.MaxJobNameLen), h.clk, 90*time.Second, 8)
	long := "jobs/" + strings.Repeat("n", config.MaxJobNameLen-len("jobs/"))
	for _, name := range []string{"jobs/a", long, "jobs/z"} {
		h.commit(t, name, 2, 1)
	}
	h.mustConverge(t)

	h.tr.Close()
	h.overflow(t)
	h.pager.max = 1 // every name ends a page
	h.mustConverge(t)

	if rs := h.remote.Stats().Resyncs; rs != 1 {
		t.Fatalf("%d resyncs, want exactly 1", rs)
	}
	if st := h.lis.Stats(); st.BadFrames != 0 {
		t.Fatalf("listener stats %+v: want no bad frames", st)
	}
}

// TestFeedClientRejectsOverlongID: an ID one byte longer than the
// listener's request bound allows is a programming error, refused when
// the client is made rather than on every poll.
func TestFeedClientRejectsOverlongID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFeedClient took an ID over config.MaxJobNameLen")
		}
	}()
	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	NewFeedClient(nil, strings.Repeat("s", config.MaxJobNameLen+1), clk, 90*time.Second, 8)
}

// TestSocketDeadServerBackoffGating: with the server down, the first
// poll pays a dial attempt; polls inside the backoff window fail fast
// with ErrBackoff (no dial); the window grows exponentially with the
// streak and is deterministic per (addr, streak).
func TestSocketDeadServerBackoffGating(t *testing.T) {
	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := nl.Addr().String()
	nl.Close() // nothing listens: every dial is refused
	tr := DialFeed(addr, DialOptions{Clock: clk, BackoffBase: time.Second, BackoffMax: time.Minute})

	req := wire.FeedRequest{Subscriber: "x"}
	if _, err := tr.PollFeed(req, nil); err == nil {
		t.Fatal("dial against a dead server succeeded")
	}
	if _, err := tr.PollFeed(req, nil); !errors.Is(err, ErrBackoff) {
		t.Fatalf("poll inside the backoff window: %v, want ErrBackoff", err)
	}
	ds := tr.Stats()
	if ds.Dials != 1 || ds.DialErrors != 1 || ds.BackoffSkips != 1 {
		t.Fatalf("stats %+v: want 1 dial, 1 dial error, 1 backoff skip", ds)
	}

	// Jitter is subtractive and bounded: every delay sits in
	// (3/4·ideal, ideal], grows monotonically with the streak, and is
	// reproducible for the same (addr, streak).
	prev := time.Duration(0)
	for streak := 1; streak <= 8; streak++ {
		tr.streak = streak - 1
		_ = tr.fail(nil) // the streak-th consecutive failure arms the window
		d := tr.nextDial.Sub(clk.Now())
		if want := backoff.Delay(time.Second, time.Minute, streak-1, addr, uint64(streak)); d != want {
			t.Fatalf("streak %d: window %v, want %v (not reproducible)", streak, d, want)
		}
		ideal := time.Second << (streak - 1)
		if ideal > time.Minute {
			ideal = time.Minute
		}
		if d > ideal || d <= ideal*3/4 {
			t.Fatalf("streak %d: delay %v outside (%v, %v]", streak, d, ideal*3/4, ideal)
		}
		if d < prev && ideal != time.Minute {
			t.Fatalf("streak %d: delay %v shrank below %v", streak, d, prev)
		}
		prev = d
	}

	// Advancing the clock past the window re-arms a real dial attempt.
	tr.streak = 1
	tr.nextDial = clk.Now().Add(time.Second)
	clk.RunFor(2 * time.Second)
	if _, err := tr.PollFeed(req, nil); errors.Is(err, ErrBackoff) {
		t.Fatal("poll past the backoff window still gated")
	}
	if ds := tr.Stats(); ds.Dials != 2 {
		t.Fatalf("%d dials after window expiry, want 2", ds.Dials)
	}
}

// TestSocketTornReplyNeverDelivered: a server that appends stray bytes
// after a valid reply frame violates the one-reply-per-poll protocol;
// the transport must count it, drop the connection, and never hand the
// frame to the client.
func TestSocketTornReplyNeverDelivered(t *testing.T) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	go func() {
		conn, err := nl.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Read the request frame, then reply with a valid frame PLUS
		// trailing garbage in one write.
		conn.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := wire.ReadFrame(conn, nil, wire.MaxFrameBody); err != nil {
			return
		}
		var e wire.Encoder
		m := e.BeginFrame(wire.FrameDelta)
		e.Buf = append(e.Buf, 0x00)
		e.EndFrame(m)
		conn.Write(append(e.Buf, 0xDE, 0xAD))
	}()

	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	tr := DialFeed(nl.Addr().String(), DialOptions{Clock: clk, ReadTimeout: 2 * time.Second})
	frame, err := tr.PollFeed(wire.FeedRequest{Subscriber: "x"}, nil)
	if err == nil {
		t.Fatalf("desynchronized reply was delivered: %d bytes", len(frame))
	}
	ds := tr.Stats()
	if ds.TornFrames != 1 {
		t.Fatalf("%d torn frames counted, want 1", ds.TornFrames)
	}
	if tr.Connected() {
		t.Fatal("connection survived a protocol violation")
	}
}

// TestSocketSilentServerTimesOut: a server that accepts and never
// replies trips DialOptions.ReadTimeout; the poll fails with the
// deadline error and the connection is dropped.
func TestSocketSilentServerTimesOut(t *testing.T) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	go func() {
		conn, err := nl.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn) // read requests, answer none
	}()

	clk := simclock.NewSim(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	tr := DialFeed(nl.Addr().String(), DialOptions{Clock: clk, ReadTimeout: 50 * time.Millisecond})
	defer tr.Close()
	if _, err := tr.PollFeed(wire.FeedRequest{Subscriber: "x"}, nil); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("poll of a silent server: %v, want a deadline error", err)
	}
	if tr.Connected() {
		t.Fatal("connection survived a read timeout")
	}
	if ds := tr.Stats(); ds.ConnErrors != 1 || ds.TornFrames != 0 {
		t.Fatalf("dial stats %+v: want 1 conn error, no torn frame", ds)
	}
}

// TestListenerDropsSilentClient: a client that connects and never sends
// a request is dropped after ListenerOptions.ReadTimeout, and the drop is
// no bad frame.
func TestListenerDropsSilentClient(t *testing.T) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := jobservice.ServeFeed(jobservice.NewSpecFeed(jobstore.New()), nl,
		jobservice.ListenerOptions{ReadTimeout: 50 * time.Millisecond})
	defer lis.Close()
	conn, err := net.Dial("tcp", nl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent client read %d bytes, %v; want the server's hang-up (io.EOF)", n, err)
	}
	if st := lis.Stats(); st.Accepted != 1 || st.BadFrames != 0 {
		t.Fatalf("listener stats %+v: want 1 accepted, no bad frame", st)
	}
}

// TestSocketStalenessBound: the degraded-mode contract on the sim
// clock — StaleFor grows monotonically across failed polls and dark
// time, resets to zero on the next successful poll, and the resume is
// counted and replays what was committed while dark from the cursor, not
// by a resync.
func TestSocketStalenessBound(t *testing.T) {
	h := newSocketHarness(t, 4)
	h.commit(t, "jobs/a", 2, 1)
	h.mustConverge(t)
	if got := h.remote.StaleFor(); got != 0 {
		t.Fatalf("StaleFor %v right after a sync, want 0", got)
	}
	before := h.remote.Stats()

	// Kill the server side entirely: polls now fail.
	h.lis.Close()
	h.tr.Close()
	if _, err := h.remote.Pump(); err == nil {
		t.Fatal("pump against a dead listener succeeded")
	}
	if !h.remote.Degraded() {
		t.Fatal("client not degraded after a failed poll")
	}
	h.clk.RunFor(10 * time.Second)
	s1 := h.remote.StaleFor()
	h.clk.RunFor(35 * time.Second)
	s2 := h.remote.StaleFor()
	if s1 < 10*time.Second || s2 < s1+35*time.Second {
		t.Fatalf("staleness bound not monotone: %v then %v", s1, s2)
	}

	// Bring a fresh listener up on a new port and re-aim the transport:
	// the next successful poll resets the bound and counts a resume.
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := jobservice.ServeFeed(h.feed, nl, jobservice.ListenerOptions{})
	defer lis.Close()
	h.tr.addr = nl.Addr().String()
	h.tr.streak = 0 // cancel the standing backoff window
	h.commit(t, "jobs/b", 3, 1)
	h.mustConverge(t)
	if got := h.remote.StaleFor(); got != 0 {
		t.Fatalf("StaleFor %v after resume, want 0", got)
	}
	st := h.remote.Stats()
	if st.Resumes != 1 || st.Failures == 0 {
		t.Fatalf("stats %+v: want 1 resume and >0 failures", st)
	}
	if applied := st.Applied - before.Applied; applied < 1 || st.Resyncs != 0 {
		t.Fatalf("resume applied %d entries with %d resyncs, want >= 1 (the dark-time commit) and 0", applied, st.Resyncs)
	}
	if h.remote.Degraded() {
		t.Fatal("client still degraded after resume")
	}
}

// TestListenerRejectsHostileFrames: garbage, oversized lengths, and
// wrong-kind frames drop the connection and count as bad frames — the
// server never buffers toward a hostile length.
func TestListenerRejectsHostileFrames(t *testing.T) {
	store := jobstore.New()
	feed := jobservice.NewSpecFeed(store)
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := jobservice.ServeFeed(feed, nl, jobservice.ListenerOptions{})
	defer lis.Close()

	send := func(raw []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", nl.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		// The server must hang up on us, not reply.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 64)
		if n, err := conn.Read(buf); err == nil {
			t.Fatalf("server replied %d bytes to a hostile frame", n)
		}
	}

	// A length prefix far beyond the request bound.
	send([]byte{0xff, 0xff, 0xff, 0x7f, 0x01})
	// A syntactically valid frame of the wrong kind.
	var e wire.Encoder
	m := e.BeginFrame(wire.FrameDelta)
	e.Buf = append(e.Buf, 0x00)
	e.EndFrame(m)
	send(e.Buf)
	// A feed-request frame whose body does not decode.
	e.Reset()
	m = e.BeginFrame(wire.FrameFeedRequest)
	e.Buf = append(e.Buf, 0xFF, 0xFF, 0xFF)
	e.EndFrame(m)
	send(e.Buf)

	deadline := time.Now().Add(2 * time.Second)
	for lis.Stats().BadFrames < 3 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := lis.Stats(); st.BadFrames != 3 {
		t.Fatalf("listener stats %+v: want 3 bad frames", st)
	}
}

// TestListenerBoundsConnections: a peer that opens connections without
// end gets the listener's 256 and no more — every accept beyond them is
// closed on the spot and counted as refused — and once they are gone a
// real subscriber dials in and syncs.
func TestListenerBoundsConnections(t *testing.T) {
	const limit, extra = 256, 8 // limit: the listener's connection cap
	h := newSocketHarness(t, 8)
	h.commit(t, "jobs/a", 4, 1)
	addr := h.lis.Addr().String()
	conns := make([]net.Conn, 0, limit+extra)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < limit+extra; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st := h.lis.Stats(); st.Accepted+st.Refused < limit+extra && time.Now().Before(deadline); st = h.lis.Stats() {
		time.Sleep(5 * time.Millisecond)
	}
	if st := h.lis.Stats(); st.Accepted != limit || st.Refused != extra {
		t.Fatalf("listener stats %+v: want %d accepted, %d refused", st, limit, extra)
	}
	for _, c := range conns {
		c.Close()
	}
	conns = conns[:0]

	// The server drops the closed connections as their reads end; until
	// it has, a dial may still be refused, and the client backs off.
	for err := h.remote.Sync(0); err != nil; err = h.remote.Sync(0) {
		if time.Now().After(deadline) {
			t.Fatalf("no sync after the flood ended: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
		h.clk.RunFor(5 * time.Minute) // past any redial backoff
	}
	h.mustConverge(t)
}
