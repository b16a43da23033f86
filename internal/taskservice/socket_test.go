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
	"net"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/jobservice"
	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/wire"
	"repro/internal/wire/stream"
)

// socketHarness is the feedHarness with the loopback replaced by a real
// listener + dialed transport pair.
type socketHarness struct {
	store  *jobstore.Store
	feed   *jobservice.SpecFeedServer
	lis    *jobservice.FeedListener
	tr     *DialTransport
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
	return &socketHarness{
		store:  store,
		feed:   feed,
		lis:    lis,
		tr:     tr,
		local:  New(store, clk, 90*time.Second, shards),
		remote: NewFeedClient(tr, "remote-ts", clk, 90*time.Second, shards),
		clk:    clk,
	}
}

func (h *socketHarness) commit(t *testing.T, name string, tasks, version int) {
	t.Helper()
	if err := h.store.CommitRunning(name, feedJobDoc(name, tasks, version), int64(version)); err != nil {
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
// overflow forces a resync, the chunk walk is clamped to one entry per
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
	h.remote.SetMaxEntries(1) // paginate: one entry per frame
	defer h.remote.SetMaxEntries(0)

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
		r := stream.NewFrameReader(conn, time.Second, 0)
		if _, _, err := r.ReadFrame(); err != nil {
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

// TestSocketStalenessBound: the degraded-mode contract on the sim
// clock — StaleFor grows monotonically across failed polls and dark
// time, resets to zero on the next successful poll, and the resume is
// counted with its journal lag.
func TestSocketStalenessBound(t *testing.T) {
	h := newSocketHarness(t, 4)
	h.commit(t, "jobs/a", 2, 1)
	h.mustConverge(t)
	if got := h.remote.StaleFor(); got != 0 {
		t.Fatalf("StaleFor %v right after a sync, want 0", got)
	}

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
	if st.LastResumeLag < 1 {
		t.Fatalf("resume lag %d, want >= 1 (the dark-time commit)", st.LastResumeLag)
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
