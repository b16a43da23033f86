// Remote Task Service consumer: the client half of the Job/Task Service
// RPC seam. A FeedClient subscribes to a SpecFeed (the transport-shaped
// boundary — same idiom as the State Syncer's ShardDriver), applies the
// delta frames to a local mirror Job Store, and runs an ordinary
// taskservice.Service over that mirror. Everything downstream of the
// mirror — journal-cursor regeneration, COW shard-index splicing,
// spec generation — is the exact machinery the in-process Task Service
// runs, which is what makes the remote index byte-identical to the
// local one once the feed converges (the chaos soak's invariant).
//
// Cursor protocol (mirrors the Job Store journal's contract):
//
//   - Delta polls carry the cursor; an empty delta (count 0) means
//     caught up.
//   - A resync-needed redirect adopts the server's fresh cursor FIRST,
//     then chunk-walks the fleet; any commit the walk misses has a
//     larger sequence number and replays through the adopted cursor —
//     so one redirect costs exactly one walk, never a loop.
//   - Every commit entry carries the server-side revision; the client
//     skips re-applying revisions it already holds, so the delta replay
//     after a chunk walk re-commits nothing the walk already delivered.
//     (A Restore restamps every revision on purpose — rebuild, don't
//     trust — so a post-Restore walk re-commits each entry exactly once.)
package taskservice

import (
	"fmt"
	"time"
	"unsafe"

	"repro/internal/jobstore"
	"repro/internal/shardmanager"
	"repro/internal/simclock"
	"repro/internal/wire"
)

// SpecFeed is the transport-agnostic spec-feed boundary. The in-process
// implementation is jobservice.SpecFeedServer (direct) or its Loopback
// (request/response through the wire codec); the fault injector wraps
// either. Implementations append the reply frame to buf and return the
// extended slice.
type SpecFeed interface {
	PollFeed(req wire.FeedRequest, buf []byte) ([]byte, error)
}

// FeedClientStats are one subscriber's cumulative counters.
type FeedClientStats struct {
	Polls   int64 // feed polls issued
	Bytes   int64 // frame bytes received
	Applied int64 // commits + drops applied to the mirror
	Skipped int64 // entries skipped: revision already held
	Resyncs int64 // full resyncs begun (resync-needed redirects)
	// Failures counts polls that returned a transport error (the mirror
	// kept serving its last index across each one).
	Failures int64
	// Resumes counts successful polls that ended a failure streak; the
	// staleness bound resets on each.
	Resumes int64
	// LastResumeLag is the number of journal entries (commits + drops +
	// dedup skips) the most recent resume had to replay to catch back up
	// — the journal-lag cost of the outage it ended. A cheap reconnect
	// (no journal overflow, light churn while dark) keeps it small; a
	// resync-redirected resume counts its full chunk walk.
	LastResumeLag int64
}

// FeedClient consumes a SpecFeed into a mirror Job Store and serves
// task-spec snapshots from it. Not safe for concurrent use; a remote
// Task Service pumps its feed from one loop.
type FeedClient struct {
	feed   SpecFeed
	id     string
	clock  simclock.Clock
	mirror *jobstore.Store
	svc    *Service

	cursor      uint64
	resync      bool
	resumeAfter string
	seen        map[string]struct{} // names walked by the current resync
	lastRev     map[string]int64    // server revision applied per job
	buf         []byte              // reused frame buffer
	max         int                 // per-frame entry bound; 0 = server default
	stats       FeedClientStats

	// Degraded-mode bookkeeping: lastOK is the clock time of the last
	// successful poll (client creation before any); dark marks a failure
	// streak in progress, during which catching-up entry counts
	// accumulate into LastResumeLag once the streak breaks.
	lastOK     time.Time
	dark       bool
	catchingUp bool
}

// NewFeedClient returns a subscriber over feed. id names it in the
// server's registry; ttl and numShards configure the mirror's Task
// Service exactly like New.
func NewFeedClient(feed SpecFeed, id string, clock simclock.Clock, ttl time.Duration, numShards int) *FeedClient {
	mirror := jobstore.New()
	return &FeedClient{
		feed:    feed,
		id:      id,
		clock:   clock,
		mirror:  mirror,
		svc:     New(mirror, clock, ttl, numShards),
		lastRev: make(map[string]int64),
		lastOK:  clock.Now(),
	}
}

// SetMaxEntries bounds the entries requested per frame (0 restores the
// server default). Tests use small bounds to force pagination.
func (c *FeedClient) SetMaxEntries(n int) { c.max = n }

// ID returns the subscriber name this client registers under.
func (c *FeedClient) ID() string { return c.id }

// Service returns the mirror-backed Task Service.
func (c *FeedClient) Service() *Service { return c.svc }

// Index returns the mirror's current task-spec snapshot.
func (c *FeedClient) Index() *SnapshotIndex { return c.svc.Index() }

// Mirror exposes the mirror store (tests, invariant checks).
func (c *FeedClient) Mirror() *jobstore.Store { return c.mirror }

// Cursor returns the client's journal position.
func (c *FeedClient) Cursor() uint64 { return c.cursor }

// Stats returns the cumulative client counters.
func (c *FeedClient) Stats() FeedClientStats { return c.stats }

// Pump issues one poll and applies the reply. done reports the client is
// caught up (an empty delta); a resync in progress always returns
// done=false. On a transport error the cursor and mirror are untouched —
// the next Pump retries the identical window — and the client enters
// degraded mode: the mirror keeps serving its last index while StaleFor
// grows monotonically until a poll succeeds again.
func (c *FeedClient) Pump() (done bool, err error) {
	if c.dark {
		// This poll would break the failure streak: restart the resume-lag
		// accumulator BEFORE it runs, so entries it replays count toward
		// this resume (pump's deferred accumulator adds to it).
		c.stats.LastResumeLag = 0
	}
	applied := c.stats.Applied
	done, err = c.pump()
	if c.stats.Applied != applied {
		// Entries landed in the mirror: drop the published snapshot's
		// freshness so an attached Task Manager sees them on its next
		// fetch rather than at TTL expiry. (Errors mid-batch still
		// invalidate — whatever applied is already in the mirror.)
		c.svc.Invalidate()
	}
	if err != nil {
		c.stats.Failures++
		c.dark = true
		return done, err
	}
	if c.dark {
		c.dark = false
		c.catchingUp = true
		c.stats.Resumes++
	}
	c.lastOK = c.clock.Now()
	if c.catchingUp && done {
		c.catchingUp = false
	}
	return done, nil
}

func (c *FeedClient) pump() (done bool, err error) {
	req := wire.FeedRequest{
		Subscriber:  c.id,
		Cursor:      c.cursor,
		Max:         c.max,
		Resync:      c.resync,
		ResumeAfter: c.resumeAfter,
	}
	frame, err := c.feed.PollFeed(req, c.buf[:0])
	if err != nil {
		return false, err
	}
	c.buf = frame
	c.stats.Polls++
	c.stats.Bytes += int64(len(frame))
	applied := c.stats.Applied + c.stats.Skipped
	defer func() {
		// Entries replayed while breaking (or just after breaking) a
		// failure streak are the resume's journal-lag cost.
		if err == nil && (c.dark || c.catchingUp) {
			c.stats.LastResumeLag += c.stats.Applied + c.stats.Skipped - applied
		}
	}()

	kind, body, rest, err := wire.DecodeFrame(frame)
	if err != nil {
		return false, err
	}
	if len(rest) != 0 {
		return false, fmt.Errorf("taskservice: feed reply carries %d trailing bytes", len(rest))
	}
	switch kind {
	case wire.FrameResyncNeeded:
		next, err := wire.DecodeResyncNeeded(body)
		if err != nil {
			return false, err
		}
		c.beginResync(next)
		return false, nil
	case wire.FrameResyncChunk:
		if !c.resync {
			return false, fmt.Errorf("taskservice: unexpected resync chunk in delta mode")
		}
		return false, c.applyChunk(body)
	case wire.FrameDelta:
		if c.resync {
			return false, fmt.Errorf("taskservice: unexpected delta mid-resync")
		}
		return c.applyDelta(body)
	default:
		return false, fmt.Errorf("taskservice: unexpected feed frame kind 0x%02x", kind)
	}
}

// StaleFor is the mirror's staleness bound: the time since the last
// successful poll (since client creation before any). It is the
// degraded-mode contract — monotonically non-decreasing while the feed
// is unreachable, reset by the next successful poll — and the Task
// Manager's proactive ConnectionTimeout gate consumes it via the
// taskmanager.StalenessSource seam: a mirror staler than the gate keeps
// serving what already runs but starts nothing new.
func (c *FeedClient) StaleFor() time.Duration {
	return c.clock.Since(c.lastOK)
}

// Degraded reports a failure streak in progress: at least one poll has
// failed since the last success, and the mirror is serving its last
// applied state.
func (c *FeedClient) Degraded() bool { return c.dark }

// Sync pumps until caught up. maxPolls bounds the loop against a
// misbehaving server (or a fault-injection storm); <= 0 means a generous
// default.
func (c *FeedClient) Sync(maxPolls int) error {
	if maxPolls <= 0 {
		maxPolls = 1 << 20
	}
	for i := 0; i < maxPolls; i++ {
		done, err := c.Pump()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
	return fmt.Errorf("taskservice: feed did not converge within %d polls", maxPolls)
}

// beginResync adopts the server's fresh cursor and enters chunk-walk
// mode. Adopting the cursor BEFORE the walk is what makes one redirect
// cost one walk: a Restore-burned cursor is replaced by a live one, so
// the post-walk delta poll succeeds instead of redirecting again.
func (c *FeedClient) beginResync(next uint64) {
	c.stats.Resyncs++
	c.resync = true
	c.resumeAfter = ""
	c.cursor = next
	c.seen = make(map[string]struct{}, len(c.lastRev))
}

func (c *FeedClient) applyChunk(body []byte) error {
	chunk, err := wire.DecodeResyncChunk(body)
	if err != nil {
		return err
	}
	for i := 0; i < chunk.Count; i++ {
		it, err := chunk.Item()
		if err != nil {
			return err
		}
		name := string(it.Name)
		if c.lastRev[name] == it.Rev {
			c.stats.Skipped++
		} else {
			doc, err := wire.DecodeDocBlob(it.Doc)
			if err != nil {
				return fmt.Errorf("taskservice: resync doc %q: %w", name, err)
			}
			if err := c.mirror.CommitRunningShared(name, doc, it.Version); err != nil {
				return err
			}
			c.lastRev[name] = it.Rev
			c.stats.Applied++
		}
		c.seen[name] = struct{}{}
		c.resumeAfter = name
	}
	if chunk.Done {
		c.finishResync()
	}
	return nil
}

// finishResync drops every mirrored job the walk did not see: entries
// whose server-side drop predates the resync and whose journal entry is
// therefore unreachable from the adopted cursor.
func (c *FeedClient) finishResync() {
	for _, name := range c.mirror.RunningNames() {
		if _, ok := c.seen[name]; !ok {
			c.mirror.DropRunning(name)
			delete(c.lastRev, name)
			c.stats.Applied++
		}
	}
	c.resync = false
	c.resumeAfter = ""
	c.seen = nil
}

func (c *FeedClient) applyDelta(body []byte) (done bool, err error) {
	delta, err := wire.DecodeDelta(body)
	if err != nil {
		return false, err
	}
	for i := 0; i < delta.Count; i++ {
		ent, err := delta.Entry()
		if err != nil {
			return false, err
		}
		// The view string never escapes into a map or the store: the skip
		// check only indexes by it, and both store paths get clones —
		// DropRunning journals the name it is given, so a view into the
		// reused frame buffer would turn to garbage on the next poll and
		// the mirror's incremental index rebuild would never splice the
		// dropped job out.
		nameView := viewString(ent.Name)
		if ent.Drop {
			name := string(ent.Name)
			c.mirror.DropRunning(name)
			delete(c.lastRev, name)
			c.stats.Applied++
			continue
		}
		if c.lastRev[nameView] == ent.Rev {
			c.stats.Skipped++
			continue
		}
		doc, err := wire.DecodeDocBlob(ent.Doc)
		if err != nil {
			return false, fmt.Errorf("taskservice: delta doc %q: %w", nameView, err)
		}
		name := string(ent.Name)
		if err := c.mirror.CommitRunningShared(name, doc, ent.Version); err != nil {
			return false, err
		}
		c.lastRev[name] = ent.Rev
		c.stats.Applied++
	}
	c.cursor = delta.Next
	return delta.Count == 0, nil
}

// viewString views b as a string without copying; valid only while the
// frame buffer is unmodified (the same contract as
// wire.Reader.StringView).
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// IndexEqual reports whether two snapshot indexes describe the same
// fleet: same shard-space size and, per shard, the same spec sequence by
// identity, shard assignment, and content (engine.TaskSpec.Equal, every
// field). This is the remote-vs-local invariant the chaos soak asserts
// across the feed seam.
func IndexEqual(a, b *SnapshotIndex) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.NumShards() != b.NumShards() || a.Len() != b.Len() {
		return false
	}
	for sh := 0; sh < a.NumShards(); sh++ {
		id := shardmanager.ShardID(sh)
		as, bs := a.ShardSpecs(id), b.ShardSpecs(id)
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i].ID != bs[i].ID || as[i].Shard != bs[i].Shard ||
				!as[i].Spec.Equal(bs[i].Spec) {
				return false
			}
		}
	}
	return true
}
