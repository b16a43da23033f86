// Remote Task Service consumer: the client half of the Job/Task Service
// RPC seam. A FeedClient subscribes to a SpecFeed (the transport-shaped
// boundary — same idiom as the State Syncer's ShardDriver), applies the
// delta frames to a replica of the running table — one row per running
// job, holding the typed JobConfig that each entry's document decodes to
// once, on arrival (wire.DecodeJobConfigBlob) — and runs an ordinary
// taskservice.Service over that replica. The remote index is
// byte-identical to the local one once the feed converges (the chaos
// soak's invariant) because everything that makes it is shared or equal:
// the Service's regeneration, COW shard-index splicing and spec
// generation are the same code; the replica's change set names every job
// the journal does; and each row's config is the one the local Service
// decodes from the same running document (DecodeJobConfigBlob is
// defined as JobConfigFromDoc of the decoded document).
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
	"slices"
	"sync"
	"time"

	"repro/internal/config"
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
	Applied int64 // commits + drops applied to the replica
	Skipped int64 // entries skipped: revision already held
	Resyncs int64 // full resyncs begun (resync-needed redirects)
	// Failures counts polls that returned a transport error (the replica
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

// FeedClient consumes a SpecFeed into a running-table replica and serves
// task-spec snapshots from it. Pump is not safe for concurrent use — a
// remote Task Service pumps its feed from one loop — but Index and the
// Service may be used from any goroutine meanwhile.
type FeedClient struct {
	feed  SpecFeed
	id    string
	clock simclock.Clock
	rep   *replica
	svc   *Service

	cursor      uint64
	resync      bool
	resumeAfter string
	seen        map[string]struct{} // names walked by the current resync
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
// server's registry; ttl and numShards configure the replica's Task
// Service exactly like New.
func NewFeedClient(feed SpecFeed, id string, clock simclock.Clock, ttl time.Duration, numShards int) *FeedClient {
	rep := newReplica()
	return &FeedClient{
		feed:   feed,
		id:     id,
		clock:  clock,
		rep:    rep,
		svc:    newService(rep, clock, ttl, numShards),
		lastOK: clock.Now(),
	}
}

// SetMaxEntries bounds the entries requested per frame (0 restores the
// server default). Tests use small bounds to force pagination.
func (c *FeedClient) SetMaxEntries(n int) { c.max = n }

// ID returns the subscriber name this client registers under.
func (c *FeedClient) ID() string { return c.id }

// Service returns the replica-backed Task Service.
func (c *FeedClient) Service() *Service { return c.svc }

// Index returns the replica's current task-spec snapshot.
func (c *FeedClient) Index() *SnapshotIndex { return c.svc.Index() }

// Cursor returns the client's journal position.
func (c *FeedClient) Cursor() uint64 { return c.cursor }

// Stats returns the cumulative client counters.
func (c *FeedClient) Stats() FeedClientStats { return c.stats }

// Pump issues one poll and applies the reply. done reports the client is
// caught up (an empty delta); a resync in progress always returns
// done=false. On a transport error the cursor and replica are untouched —
// the next Pump retries the identical window — and the client enters
// degraded mode: the replica keeps serving its last index while StaleFor
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
		// Entries landed in the replica: drop the published snapshot's
		// freshness so an attached Task Manager sees them on its next
		// fetch rather than at TTL expiry. (Errors mid-batch still
		// invalidate — whatever applied is already in the replica.)
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

// StaleFor is the replica's staleness bound: the time since the last
// successful poll (since client creation before any). It is the
// degraded-mode contract — monotonically non-decreasing while the feed
// is unreachable, reset by the next successful poll — and the Task
// Manager's proactive ConnectionTimeout gate consumes it via the
// taskmanager.StalenessSource seam: a replica staler than the gate keeps
// serving what already runs but starts nothing new.
func (c *FeedClient) StaleFor() time.Duration {
	return c.clock.Since(c.lastOK)
}

// Degraded reports a failure streak in progress: at least one poll has
// failed since the last success, and the replica is serving its last
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
	c.seen = make(map[string]struct{}, c.rep.size())
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
		if c.rep.holds(it.Name, it.Rev) {
			c.stats.Skipped++
		} else {
			cfg, err := wire.DecodeJobConfigBlob(it.Doc)
			if err != nil {
				return fmt.Errorf("taskservice: resync doc %q: %w", name, err)
			}
			c.rep.commit(it.Name, it.Rev, it.Version, cfg)
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

// finishResync drops every replicated job the walk did not see: entries
// whose server-side drop predates the resync and whose journal entry is
// therefore unreachable from the adopted cursor.
func (c *FeedClient) finishResync() {
	c.stats.Applied += int64(c.rep.dropUnseen(c.seen))
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
		if ent.Drop {
			c.rep.drop(ent.Name)
			c.stats.Applied++
			continue
		}
		if c.rep.holds(ent.Name, ent.Rev) {
			c.stats.Skipped++
			continue
		}
		cfg, err := wire.DecodeJobConfigBlob(ent.Doc)
		if err != nil {
			return false, fmt.Errorf("taskservice: delta doc %q: %w", ent.Name, err)
		}
		c.rep.commit(ent.Name, ent.Rev, ent.Version, cfg)
		c.stats.Applied++
	}
	c.cursor = delta.Next
	return delta.Count == 0, nil
}

// replica is a FeedClient's running table: one row per job the feed has
// delivered as running, and the set of names committed or dropped since
// the FeedClient's Service last asked. Pump is the only writer and the
// Service the only consumer of the set, so the set needs no cursor and
// never overflows. The Service's pool workers read rows while Pump writes
// them, so every access holds mu, except the writer's own reads (holds,
// size), which no other write can race.
type replica struct {
	mu      sync.RWMutex
	rows    map[string]replicaRow
	touched map[string]struct{}
	rev     int64 // the last local revision stamped
}

// replicaRow is one replicated running entry.
type replicaRow struct {
	name    string            // the row's key, shared by the touched set
	srvRev  int64             // the server's revision: the feed's dedup key
	version int64             // the expected version the entry realizes
	rev     int64             // local revision, stamped on every apply: the Service's group-cache key
	cfg     *config.JobConfig // nil: the document is not a JobConfig
}

func newReplica() *replica {
	return &replica{rows: make(map[string]replicaRow), touched: make(map[string]struct{})}
}

// holds reports whether the row for name is at server revision srvRev.
// Writer only.
func (r *replica) holds(name []byte, srvRev int64) bool {
	row, ok := r.rows[string(name)]
	return ok && row.srvRev == srvRev
}

// size returns the number of rows. Writer only.
func (r *replica) size() int { return len(r.rows) }

// commit installs a job's running entry under a fresh local revision.
// name may be a view into the frame buffer; the row keeps a copy.
func (r *replica) commit(name []byte, srvRev, version int64, cfg *config.JobConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	row, ok := r.rows[string(name)]
	if !ok {
		row.name = string(name)
	}
	r.rev++
	row.srvRev, row.version, row.rev, row.cfg = srvRev, version, r.rev, cfg
	r.rows[row.name] = row
	r.touched[row.name] = struct{}{}
}

// drop removes a job's row, if it has one.
func (r *replica) drop(name []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if row, ok := r.rows[string(name)]; ok {
		delete(r.rows, row.name)
		r.touched[row.name] = struct{}{}
	}
}

// dropUnseen removes every row whose name is not in seen and returns how
// many it removed.
func (r *replica) dropUnseen(seen map[string]struct{}) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for name := range r.rows {
		if _, ok := seen[name]; !ok {
			delete(r.rows, name)
			r.touched[name] = struct{}{}
			n++
		}
	}
	return n
}

// ChangesSince hands over the names touched since the previous call and
// forgets them. The cursor is not needed — the replica has one consumer —
// so it is returned unchanged, and the set is never lost to an overflow.
func (r *replica) ChangesSince(cursor uint64, buf []jobstore.Change) ([]jobstore.Change, uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name := range r.touched {
		buf = append(buf, jobstore.Change{Name: name})
	}
	if len(r.touched) > 256 {
		// A release or a resync touched many: let the large table go, so
		// that each later hand-over costs what it hands over.
		r.touched = make(map[string]struct{})
	} else {
		clear(r.touched)
	}
	return buf, cursor, true
}

// RunningNames lists the replicated jobs, sorted.
func (r *replica) RunningNames() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.rows))
	for name := range r.rows {
		names = append(names, name)
	}
	r.mu.RUnlock()
	slices.Sort(names)
	return names
}

// RunningRevision returns a job's local revision.
func (r *replica) RunningRevision(name string) (int64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	row, ok := r.rows[name]
	return row.rev, ok
}

func (r *replica) runningConfig(name string) *config.JobConfig {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rows[name].cfg
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
