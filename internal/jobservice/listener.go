// FeedListener: the spec feed's socket binding. It serves the exact
// request/response frames the Loopback transport round-trips in process
// — a FrameFeedRequest in, one reply frame out — over real net.Conns,
// which makes a multi-process deployment launch-script work: run
// `turbinectl serve-feed` next to the Job Service, point remote Task
// Services' DialFeed at it, and the SpecFeedServer underneath cannot
// tell the difference (same PollFeed entry point, same frame cache,
// same per-subscriber registry).
//
// Robustness contract per connection:
//
//   - Requests are reassembled by a stream.Decoder with a tight body
//     bound (feed requests are tiny), so hostile lengths and torn
//     request frames drop the connection without buffering or panicking.
//   - Read deadlines bound how long an idle or trickling peer can hold
//     a connection; write deadlines bound a peer that stops draining
//     replies. Either expiry drops the connection — the client's
//     reconnect path owns recovery, and its cursor-carrying resume makes
//     the drop cost zero resyncs.
//   - Per-connection reply and request buffers are reused across polls,
//     so a converged subscriber costs the server no steady-state
//     allocation beyond the conn's goroutine.
//   - At most maxConns connections are live at once; an accept beyond
//     that is closed on the spot, before it costs a goroutine or a
//     buffer, and counted as refused.
package jobservice

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/stream"
)

// ListenerOptions tune a FeedListener. Zero values take defaults.
type ListenerOptions struct {
	// ReadTimeout bounds the wait for a complete request frame once per
	// read; it doubles as the idle timeout between polls. Default 2 min
	// (comfortably above any sane poll cadence).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one reply frame. Default 30 s.
	WriteTimeout time.Duration
}

// maxConns bounds a FeedListener's live connections. A deployment holds
// one per remote Task Service; a peer that opens connections without end
// must not get a goroutine and its buffers for each.
const maxConns = 256

// maxRequestBody bounds an accepted request frame's body: a feed request
// is a byte of flags, two varints, and two short strings. Anything
// larger is hostile.
const maxRequestBody = 4 << 10

func (o *ListenerOptions) fillDefaults() {
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 2 * time.Minute
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
}

// ListenerStats are a FeedListener's cumulative counters.
type ListenerStats struct {
	Accepted int64 // connections accepted
	Served   int64 // polls answered with a reply frame
	// BadFrames counts connections dropped for a malformed, oversized,
	// or wrong-kind request frame.
	BadFrames int64
	// Refused counts connections closed on accept because maxConns were
	// live.
	Refused int64
}

// FeedListener serves a SpecFeedServer over a net.Listener. Each
// connection is one subscriber session: request/response in lockstep,
// any protocol violation drops the connection.
type FeedListener struct {
	srv  *SpecFeedServer
	lis  net.Listener
	opts ListenerOptions

	accepted, served, badFrames, refused atomic.Int64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeFeed starts serving srv on lis and returns immediately; the
// accept loop and per-connection handlers run on their own goroutines.
// Close the listener with Close.
func ServeFeed(srv *SpecFeedServer, lis net.Listener, opts ListenerOptions) *FeedListener {
	opts.fillDefaults()
	l := &FeedListener{
		srv:   srv,
		lis:   lis,
		opts:  opts,
		conns: make(map[net.Conn]struct{}),
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l
}

// Addr returns the bound listen address (for "listen on :0" tests and
// launch scripts that print the port).
func (l *FeedListener) Addr() net.Addr { return l.lis.Addr() }

// Stats returns the listener's cumulative counters.
func (l *FeedListener) Stats() ListenerStats {
	return ListenerStats{
		Accepted:  l.accepted.Load(),
		Served:    l.served.Load(),
		BadFrames: l.badFrames.Load(),
		Refused:   l.refused.Load(),
	}
}

// Close stops accepting, closes every live connection, and waits for
// the handlers to drain.
func (l *FeedListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	err := l.lis.Close()
	l.wg.Wait()
	return err
}

func (l *FeedListener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.lis.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		if len(l.conns) >= maxConns {
			l.mu.Unlock()
			conn.Close()
			l.refused.Add(1)
			continue
		}
		l.conns[conn] = struct{}{}
		l.accepted.Add(1)
		l.wg.Add(1)
		l.mu.Unlock()
		go l.serveConn(conn)
	}
}

func (l *FeedListener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	defer func() {
		conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
	}()
	r := stream.NewFrameReader(conn, l.opts.ReadTimeout, maxRequestBody)
	var reply []byte // reused across polls on this conn
	for {
		kind, body, err := r.ReadFrame()
		if err != nil {
			// io.EOF between frames is a clean hang-up; anything else —
			// torn request, hostile length, deadline — is a drop either
			// way. Errors carrying wire.ErrMalformed count as bad frames.
			if errors.Is(err, wire.ErrMalformed) {
				l.badFrames.Add(1)
			}
			return
		}
		if kind != wire.FrameFeedRequest {
			l.badFrames.Add(1)
			return
		}
		req, err := wire.DecodeFeedRequest(body)
		if err != nil {
			l.badFrames.Add(1)
			return
		}
		// req's strings are views into the frame buffer; PollFeed's
		// registry clones before retaining, per its contract.
		reply, err = l.pollInto(req, reply[:0])
		if err != nil {
			// A server-side encode failure is not the peer's fault, but
			// there is no error frame in the protocol; drop the conn and
			// let the client's retry path decide.
			return
		}
		if err := stream.WriteFrame(conn, reply, l.opts.WriteTimeout); err != nil {
			return
		}
		l.served.Add(1)
	}
}

// pollInto exists so a PollFeed panic (it must not, but this is the
// process's network edge) cannot take the whole process down with it.
func (l *FeedListener) pollInto(req wire.FeedRequest, buf []byte) (reply []byte, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			reply, err = nil, fmt.Errorf("jobservice: poll panic: %v", rec)
		}
	}()
	return l.srv.PollFeed(req, buf)
}
