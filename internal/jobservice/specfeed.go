// Spec feed: the Job Service's server half of the Job/Task Service RPC
// seam. A remote Task Service (or any journal consumer) polls the feed
// with its journal cursor and receives batched ChangesSince deltas as
// encoded wire frames. Every reply is a delta: a cursor that cannot be
// caught up incrementally gets a redirect (a delta with no entries
// naming the cursor to adopt), and the walk of the running table that
// follows is served as pages of deltas too, in name order. Cursors and
// revisions are one server process's: each server draws an incarnation
// when it is built, stamps it on every frame, and redirects a request
// that carries another one, so a subscriber that outlives a serve-feed
// restart walks the new process's table instead of trusting a cursor
// that happens to match.
//
// The feed is transport-agnostic: PollFeed speaks (request struct in,
// frame bytes out), so an in-process subscriber polls the server itself
// and the FeedListener's socket serves the same entry point, with no
// server changes.
//
// The frame cache makes fan-out free. A delta frame built with the full
// batch limit is a pure function of (cursor, journal head): the journal
// assigns sequence numbers under its mutex, a running entry's typed
// config encodes in one fixed key order, and every change to what a
// frame carries (a commit of new content, a drop) journals — a commit
// that moves only the running version changes no frame — so the head
// moving is exactly the signal that any cached frame might be stale.
// Cached frames are keyed by cursor and valid for one journal head (any
// journaled commit or drop empties the cache); that covers mid-catch-up
// windows too, so K subscribers draining the same churn tick share each
// window's encoding, not just the final empty frame. Requests with a
// bounded Max (the injected partial-batch fault) bypass the cache in
// both directions — they neither hit a full-batch frame nor poison the
// cache with a truncated window. In the converged steady state every
// subscriber polls at cursor == head and receives the one cached empty
// frame: 0 allocations per poll, O(1) bytes, regardless of fleet size.
package jobservice

import (
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobstore"
	"repro/internal/simclock"
	"repro/internal/wire"
)

const (
	// DefaultFeedBatch is the entry bound per frame, for journal windows
	// and walk pages alike. It matches the journal capacity's order of
	// magnitude so a subscriber one full ring behind catches up in a
	// handful of frames.
	DefaultFeedBatch = 1024
	// maxSubscribers bounds the subscriber registry by count, as
	// subscriberTTL bounds it by age: a poll under a first-seen name that
	// finds the registry full is served but not registered.
	maxSubscribers = 4096
	// subscriberTTL is how long a subscriber may stay silent before
	// eviction (SetSubscriberTTL) drops it from the registry.
	subscriberTTL = 15 * time.Minute
)

// FeedStats are the spec feed's cumulative counters.
type FeedStats struct {
	// FrameHits / FrameMisses count delta polls served from /
	// built into the encoded-frame cache.
	FrameHits, FrameMisses int64
	// Resyncs counts polls answered with a redirect.
	Resyncs int64
	// Evicted counts subscribers dropped from the registry for silence
	// longer than subscriberTTL (SetSubscriberTTL).
	Evicted int64
	// Unregistered counts polls served under a first-seen name that the
	// full registry could not take, even after an eviction sweep. The
	// registry is status only, so these polls are served like any other.
	Unregistered int64
}

// SubscriberStatus is one subscriber's last observed feed position.
type SubscriberStatus struct {
	Subscriber string
	// Cursor is the journal position of the subscriber's latest delta
	// poll.
	Cursor uint64
	// Lag is journal head − cursor at the time of the status read.
	Lag uint64
	// Polls and Resyncs are cumulative for this subscriber.
	Polls   int64
	Resyncs int64
	// Resyncing reports the subscriber is mid-walk.
	Resyncing bool
	// SincePoll is the subscriber's server-side staleness: time since
	// its last poll on the eviction clock. Zero when no eviction clock
	// is configured.
	SincePoll time.Duration
}

// SpecFeedServer serves the Job Store's change journal as encoded
// frames. Safe for concurrent use by any number of subscribers.
type SpecFeedServer struct {
	store *jobstore.Store
	batch int
	inc   uint64 // this server's incarnation, drawn at construction

	// mu guards the encoder, the change scratch, and the frame cache.
	// Polls serialize on it: the critical section is a journal read plus
	// an encode (or a cache copy), and serializing is exactly what lets
	// concurrent same-cursor subscribers share one encoding.
	mu      sync.Mutex
	head    uint64                  // journal head the cache is valid for
	frames  map[uint64]*cachedFrame // cursor → complete encoded frame
	pool    []*cachedFrame          // retired entries, buffers reused
	scratch []jobstore.Change
	enc     wire.Encoder

	hits, misses, resyncs, evicted, unregistered atomic.Int64

	subMu sync.Mutex
	subs  map[string]*subscriberState
	// Eviction (SetSubscriberTTL): a subscriber silent for longer than
	// subscriberTTL on evictClock is dropped from the registry, so a
	// long-lived server does not grow without bound as remote Task
	// Services churn; maxSubscribers bounds it either way. nil disables
	// eviction.
	evictClock simclock.Clock
	lastSweep  time.Time
}

type cachedFrame struct {
	data []byte
}

type subscriberState struct {
	cursor    uint64
	polls     int64
	resyncs   int64
	resyncing bool
	lastPoll  time.Time // eviction clock; zero when eviction is off
}

// NewSpecFeed returns a feed server over store with the default batch
// bound.
func NewSpecFeed(store *jobstore.Store) *SpecFeedServer {
	return &SpecFeedServer{
		store:  store,
		batch:  DefaultFeedBatch,
		inc:    rand.Uint64() | 1, // nonzero: 0 is a fresh subscriber's
		frames: make(map[uint64]*cachedFrame),
		subs:   make(map[string]*subscriberState),
	}
}

// Stats returns the cumulative feed counters.
func (f *SpecFeedServer) Stats() FeedStats {
	return FeedStats{
		FrameHits:    f.hits.Load(),
		FrameMisses:  f.misses.Load(),
		Resyncs:      f.resyncs.Load(),
		Evicted:      f.evicted.Load(),
		Unregistered: f.unregistered.Load(),
	}
}

// SetSubscriberTTL arms subscriber eviction: a subscriber whose last
// poll is more than subscriberTTL behind clock's now is dropped from the
// registry. Eviction is lazy — swept opportunistically on polls and on
// Subscribers() reads — so it adds no background goroutine; an evicted
// subscriber that polls again simply re-registers (its cursor rides in
// its own requests, so no state is lost).
func (f *SpecFeedServer) SetSubscriberTTL(clock simclock.Clock) {
	f.subMu.Lock()
	defer f.subMu.Unlock()
	f.evictClock = clock
	f.lastSweep = clock.Now()
}

// evictLocked sweeps silent subscribers. Caller holds subMu. Unless
// forced, sweeps are rate-limited to one per quarter-TTL so the registry
// scan cost stays amortized even under heavy poll traffic.
func (f *SpecFeedServer) evictLocked(now time.Time, force bool) {
	if f.evictClock == nil || !force && now.Sub(f.lastSweep) < subscriberTTL/4 {
		return
	}
	f.lastSweep = now
	for name, st := range f.subs {
		if now.Sub(st.lastPoll) > subscriberTTL {
			delete(f.subs, name)
			f.evicted.Add(1)
		}
	}
}

// Subscribers returns every known subscriber's status, sorted by name,
// with Lag computed against the current journal head.
func (f *SpecFeedServer) Subscribers() []SubscriberStatus {
	head := f.store.JournalHead()
	f.subMu.Lock()
	defer f.subMu.Unlock()
	var now time.Time
	if f.evictClock != nil {
		now = f.evictClock.Now()
		f.evictLocked(now, false)
	}
	out := make([]SubscriberStatus, 0, len(f.subs))
	for name, st := range f.subs {
		s := SubscriberStatus{
			Subscriber: name,
			Cursor:     st.cursor,
			Polls:      st.polls,
			Resyncs:    st.resyncs,
			Resyncing:  st.resyncing,
		}
		if head > st.cursor {
			s.Lag = head - st.cursor
		}
		if !now.IsZero() {
			s.SincePoll = now.Sub(st.lastPoll)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Subscriber < out[j].Subscriber })
	return out
}

// PollFeed answers one subscriber poll with an encoded frame appended to
// buf (pass a reused buffer's [:0] reslice; converged polls are then
// allocation-free). req.Subscriber may be a transport-owned string view;
// the registry clones it before retaining.
func (f *SpecFeedServer) PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error) {
	if req.Incarnation != 0 && req.Incarnation != f.inc {
		f.resyncs.Add(1)
		e := wire.Encoder{Buf: buf}
		e.AppendRedirect(f.inc, f.store.JournalHead())
		f.note(req, true, false)
		return e.Buf, nil
	}
	if req.Resync {
		frame := f.resyncPage(req, buf)
		f.note(req, false, true)
		return frame, nil
	}
	frame, redirected := f.delta(req, buf)
	f.note(req, redirected, false)
	return frame, nil
}

// delta serves a batched ChangesSince window, or a redirect when the
// cursor fell off the journal.
func (f *SpecFeedServer) delta(req wire.FeedRequest, buf []byte) (frame []byte, redirected bool) {
	max := req.Max
	if max <= 0 || max > f.batch {
		max = f.batch
	}
	f.mu.Lock()
	defer f.mu.Unlock()

	head := f.store.JournalHead()
	if head != f.head {
		for k, cf := range f.frames {
			delete(f.frames, k)
			f.pool = append(f.pool, cf)
		}
		f.head = head
	}
	// Cache hits require the full batch limit: cached frames were built
	// with it, and a bounded request must not receive a wider window
	// than it asked for.
	if cf, ok := f.frames[req.Cursor]; ok && max == f.batch {
		f.hits.Add(1)
		return append(buf, cf.data...), false
	}
	f.misses.Add(1)

	changes, next, ok := f.store.ChangesSinceLimit(req.Cursor, max, f.scratch[:0])
	f.scratch = changes
	e := &f.enc
	e.Reset()
	if !ok {
		f.resyncs.Add(1)
		e.AppendRedirect(f.inc, next)
		return append(buf, e.Buf...), true
	}
	mark := e.AppendDeltaHeader(f.inc, next, len(changes))
	for _, ch := range changes {
		f.appendEntry(ch.Name, ch.Drop)
	}
	e.EndFrame(mark)
	if max == f.batch {
		cf := f.takePooled()
		cf.data = append(cf.data[:0], e.Buf...)
		f.frames[req.Cursor] = cf
	}
	return append(buf, e.Buf...), false
}

// resyncPage serves one page of the running table's walk as a delta:
// the running entries of up to one batch of names after
// req.ResumeAfter, in name order, and next echoing the subscriber's
// adopted cursor. The walk ends at the first empty page.
func (f *SpecFeedServer) resyncPage(req wire.FeedRequest, buf []byte) []byte {
	max := req.Max
	if max <= 0 || max > f.batch {
		max = f.batch
	}
	names := f.store.RunningNames()
	start := sort.SearchStrings(names, req.ResumeAfter)
	if start < len(names) && names[start] == req.ResumeAfter {
		start++
	}
	names = names[start:min(start+max, len(names))]

	f.mu.Lock()
	defer f.mu.Unlock()
	e := &f.enc
	e.Reset()
	mark := e.AppendDeltaHeader(f.inc, req.Cursor, len(names))
	for _, name := range names {
		f.appendEntry(name, false)
	}
	e.EndFrame(mark)
	return append(buf, e.Buf...)
}

// appendEntry appends a drop of name, or its running entry as a commit,
// to the frame being encoded. A job dropped since its name was read from
// the journal or the running table goes as a drop too: the drop's own
// journal entry has a higher seq and will confirm it, and sending it
// early is consistent with the journal's read-newer-than-entry contract.
// Caller holds mu.
func (f *SpecFeedServer) appendEntry(name string, drop bool) {
	if !drop {
		if cfg, rev, live := f.store.RunningEntry(name); live {
			f.enc.AppendDeltaCommit(name, rev, cfg)
			return
		}
	}
	f.enc.AppendDeltaDrop(name)
}

func (f *SpecFeedServer) takePooled() *cachedFrame {
	if n := len(f.pool); n > 0 {
		cf := f.pool[n-1]
		f.pool = f.pool[:n-1]
		return cf
	}
	return &cachedFrame{}
}

// note updates the subscriber registry. The fast path — a known
// subscriber — performs a map lookup keyed by the (possibly view)
// string and mutates in place, no allocation; only a first-seen
// subscriber clones its name. A first-seen subscriber that finds the
// registry full forces an eviction sweep, and if that frees nothing it
// stays unregistered.
func (f *SpecFeedServer) note(req wire.FeedRequest, redirected, resyncPoll bool) {
	if req.Subscriber == "" {
		return
	}
	f.subMu.Lock()
	defer f.subMu.Unlock()
	st, ok := f.subs[req.Subscriber]
	if !ok {
		if len(f.subs) >= maxSubscribers && f.evictClock != nil {
			f.evictLocked(f.evictClock.Now(), true)
		}
		if len(f.subs) >= maxSubscribers {
			f.unregistered.Add(1)
			return
		}
		st = &subscriberState{}
		f.subs[strings.Clone(req.Subscriber)] = st
	}
	if f.evictClock != nil {
		now := f.evictClock.Now()
		st.lastPoll = now
		f.evictLocked(now, false)
	}
	st.polls++
	if resyncPoll {
		st.resyncing = true
		return
	}
	st.cursor = req.Cursor
	st.resyncing = false
	if redirected {
		st.resyncs++
		st.resyncing = true
	}
}
