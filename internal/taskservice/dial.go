// DialTransport: the spec feed's socket client. It implements the
// SpecFeed boundary over a real net.Conn to a jobservice.FeedListener, and owns everything a real network makes the
// client's problem:
//
//   - Reconnect with bounded exponential backoff and deterministic
//     jitter (backoff.Delay, keyed by address + streak): a dead
//     or refusing server costs one dial per backoff window, not one per
//     poll — polls inside the window fail fast with ErrBackoff. Backoff
//     deadlines live on the injected Clock so simulated deployments
//     stay replayable; socket I/O deadlines are wall clock.
//   - Session resume is free: the FeedClient's cursor rides in every
//     request, so a reconnect simply resumes the delta stream — zero
//     full resyncs unless the journal overflowed while the client was
//     dark (the socket cursor-edge suite pins both sides of that line).
//   - Frame integrity: each reply is read whole by wire.ReadFrame
//     straight into the FeedClient's buffer, never a torn frame; a
//     connection cut mid-reply surfaces as a transport error (cursor
//     untouched, identical window retried), and a reply followed by
//     stray bytes on the stream is counted in TornFrames and drops the
//     connection — the chaos soak asserts that counter stays zero under
//     fault storms.
//
// Not safe for concurrent use: one DialTransport serves one FeedClient's
// poll loop.
package taskservice

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/backoff"
	"repro/internal/simclock"
	"repro/internal/wire"
)

// ErrBackoff is returned by PollFeed while the transport is inside a
// reconnect backoff window: no dial was attempted, the caller should
// simply poll again later. The FeedClient treats it like any transport
// error — cursor and mirror untouched.
var ErrBackoff = errors.New("taskservice: feed transport backing off before redial")

// DialOptions tune a DialTransport. Zero values take defaults.
type DialOptions struct {
	// DialTimeout bounds one connect attempt. Default 5 s.
	DialTimeout time.Duration
	// ReadTimeout / WriteTimeout bound one reply read / request write.
	// Defaults 30 s / 10 s.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// BackoffBase is the reconnect backoff unit: the k-th consecutive
	// transport failure schedules the next dial base·2^(k-1) out, capped
	// at BackoffMax, minus a deterministic jitter of up to a quarter of
	// the delay (keyed by address and streak) so a fleet of clients cut
	// off together does not redial in lockstep. Defaults 1 s / 2 min.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Clock schedules backoff deadlines (NOT socket deadlines, which are
	// wall clock). Defaults to the real clock; simulated clusters inject
	// their sim clock so reconnect cadence is replayable.
	Clock simclock.Clock
	// WrapConn interposes on each freshly dialed connection — the fault
	// injector's byte-stream seam. Nil means no wrapping.
	WrapConn func(net.Conn) net.Conn
}

func (o *DialOptions) fillDefaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = time.Second
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Minute
	}
	if o.Clock == nil {
		o.Clock = simclock.NewReal()
	}
}

// DialStats are a DialTransport's cumulative counters.
type DialStats struct {
	Dials      int64 // connect attempts
	Reconnects int64 // successful dials after at least one failure or drop
	ConnErrors int64 // polls failed on a live conn (write/read/decode)
	DialErrors int64 // connect attempts that failed
	// BackoffSkips counts polls answered with ErrBackoff (no dial).
	BackoffSkips int64
	// TornFrames counts replies that decoded as a complete frame but
	// violated the one-reply-per-poll protocol (stray bytes after the
	// frame). Must stay zero: stream faults cut connections, they never
	// corrupt delivered frames.
	TornFrames int64
}

// readChunk is the reply reader's buffer size: one read takes up to this
// many bytes off the conn, and any it holds past a reply are stray.
const readChunk = 32 << 10

// DialTransport is a SpecFeed over a TCP (or any net.Dial-able)
// connection to a FeedListener.
type DialTransport struct {
	network string
	addr    string
	opts    DialOptions

	conn     net.Conn
	br       *bufio.Reader // reads conn; bytes it holds past a reply are stray
	enc      wire.Encoder
	everConn bool // a session existed before (distinguishes reconnects)

	streak   int       // consecutive transport failures
	nextDial time.Time // earliest next connect attempt (opts.Clock time)

	stats DialStats
}

// DialFeed returns a transport that connects to a FeedListener at addr
// on first use. Dialing is lazy so construction never blocks; a dead
// server surfaces on the first poll.
func DialFeed(addr string, opts DialOptions) *DialTransport {
	opts.fillDefaults()
	return &DialTransport{network: "tcp", addr: addr, opts: opts}
}

// Stats returns the transport's cumulative counters.
func (t *DialTransport) Stats() DialStats { return t.stats }

// Connected reports whether a connection is currently established.
func (t *DialTransport) Connected() bool { return t.conn != nil }

// Close drops the current connection, if any. The next poll redials
// (subject to any standing backoff window).
func (t *DialTransport) Close() {
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
	}
}

// PollFeed implements the SpecFeed boundary over the socket: encode the
// request, write it under a deadline, read exactly one reply frame, and
// append it to buf. Any transport failure closes the connection, arms
// the backoff window, and returns an error with the caller's cursor
// untouched — the next poll past the window redials and retries the
// identical request, which is the whole resume protocol.
func (t *DialTransport) PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error) {
	if t.conn == nil {
		if err := t.dial(); err != nil {
			return nil, err
		}
	}
	t.enc.Reset()
	t.enc.AppendFeedRequest(req)
	err := t.conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	if err == nil {
		_, err = t.conn.Write(t.enc.Buf)
	}
	if err != nil {
		return nil, t.fail(fmt.Errorf("taskservice: feed request write: %w", err))
	}
	if err = t.conn.SetReadDeadline(time.Now().Add(t.opts.ReadTimeout)); err == nil {
		buf, err = wire.ReadFrame(t.br, buf, wire.MaxFrameBody)
	}
	if err != nil {
		return nil, t.fail(fmt.Errorf("taskservice: feed reply read: %w", err))
	}
	if n := t.br.Buffered(); n != 0 {
		// One request, one reply: bytes beyond the frame mean the stream
		// is desynchronized — a torn or injected reply. Never deliver it.
		t.stats.TornFrames++
		return nil, t.fail(fmt.Errorf("taskservice: %d stray bytes after feed reply frame", n))
	}
	t.streak = 0
	return buf, nil
}

// dial attempts one connection, honoring the backoff window.
func (t *DialTransport) dial() error {
	now := t.opts.Clock.Now()
	if t.streak > 0 && now.Before(t.nextDial) {
		t.stats.BackoffSkips++
		return fmt.Errorf("%w (%s left)", ErrBackoff, t.nextDial.Sub(now).Round(time.Millisecond))
	}
	t.stats.Dials++
	conn, err := net.DialTimeout(t.network, t.addr, t.opts.DialTimeout)
	if err != nil {
		t.stats.DialErrors++
		return t.fail(fmt.Errorf("taskservice: feed dial %s: %w", t.addr, err))
	}
	if t.opts.WrapConn != nil {
		conn = t.opts.WrapConn(conn)
	}
	t.conn = conn
	t.br = bufio.NewReaderSize(conn, readChunk)
	if t.everConn {
		t.stats.Reconnects++
	}
	t.everConn = true
	return nil
}

// fail records a transport failure: close the conn, grow the streak,
// and arm the next backoff window.
func (t *DialTransport) fail(err error) error {
	if t.conn != nil {
		t.stats.ConnErrors++
		t.Close()
	}
	t.streak++
	// base·2^(streak-1) capped at BackoffMax, less per-(addr, streak)
	// jitter: seed-stable, so a simulated redial cadence replays.
	t.nextDial = t.opts.Clock.Now().Add(backoff.Delay(
		t.opts.BackoffBase, t.opts.BackoffMax, t.streak-1, t.addr, uint64(t.streak)))
	return err
}
