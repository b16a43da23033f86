// Remote Task Service consumer: the client half of the Job/Task Service
// RPC seam. A FeedClient subscribes to a SpecFeed (the transport-shaped
// boundary — same idiom as the State Syncer's ShardDriver), applies the
// delta frames to a replica of the running table — one row per running
// job, holding the typed JobConfig that each entry's document decodes to
// once, on arrival, into a config that owns its strings (decodeEntry) —
// and runs an ordinary taskservice.Service over that replica. The remote index is
// byte-identical to the local one once the feed converges (the chaos
// soak's invariant) because everything that makes it is shared or equal:
// the Service's regeneration, COW shard-index splicing and spec
// generation are the same code; the replica's change set names every job
// the journal does; and each row's config is the one the local Service
// reads from the Job Store, because the feed encodes that very config
// (wire.AppendJobConfig) and DecodeJobConfigBlob returns it from the
// bytes. A running entry that is no JobConfig travels as the empty
// document, whose zero config, like nil, runs no tasks.
//
// Cursor protocol (mirrors the Job Store journal's contract). Every
// reply is a delta frame, and in either mode an empty one means
// "nothing more":
//
//   - Delta polls carry the cursor; an empty delta means caught up.
//   - A redirect adopts the server's fresh cursor FIRST, then walks the
//     running table in name-ordered pages, each a delta, until the
//     first empty page; any commit the walk misses has a larger
//     sequence number and replays through the adopted cursor — so one
//     redirect costs exactly one walk, never a loop.
//   - Every commit entry carries the server-side revision; the client
//     skips re-applying revisions it already holds, so the delta replay
//     after a walk re-commits nothing the walk already delivered.
//     (A Restore restamps every revision on purpose — rebuild, don't
//     trust — so a post-Restore walk re-commits each entry exactly once.)
//   - Cursors and revisions belong to one server process. Every frame
//     names its server's incarnation and every request the one the
//     client's cursor came from; a server of another incarnation (a
//     serve-feed restarted behind the same address) redirects, and the
//     client forgets its rows' server revisions before walking, so a
//     cursor or revision that happens to match the new process's is
//     never taken for caught up.
package taskservice

import (
	"errors"
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

// SpecFeed is the transport-agnostic spec-feed boundary. In process it
// is jobservice.SpecFeedServer itself; across processes it is a
// DialTransport to a jobservice.FeedListener; the fault injector wraps
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
	Resyncs int64 // full resyncs begun (redirects)
	// Failures counts polls that returned a transport error (the replica
	// kept serving its last index across each one).
	Failures int64
	// Resumes counts successful polls that ended a failure streak; the
	// staleness bound resets on each.
	Resumes int64
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

	inc         uint64 // the server incarnation cursor and rows came from; 0: none yet
	cursor      uint64
	resync      bool
	resumeAfter string
	seen        map[string]struct{} // names walked by the current resync
	buf         []byte              // reused frame buffer
	stats       FeedClientStats

	// Degraded-mode bookkeeping: lastOK is the clock time of the last
	// successful poll (client creation before any); dark marks a failure
	// streak in progress.
	lastOK time.Time
	dark   bool
}

// NewFeedClient returns a subscriber over feed. id names it in the
// server's registry; ttl and numShards configure the replica's Task
// Service exactly like New. An id longer than config.MaxJobNameLen
// panics: the feed listener's request bound is derived from that length,
// so it would refuse every poll.
func NewFeedClient(feed SpecFeed, id string, clock simclock.Clock, ttl time.Duration, numShards int) *FeedClient {
	if len(id) > config.MaxJobNameLen {
		panic(fmt.Sprintf("taskservice: feed subscriber ID of %d bytes, over the %d-byte bound", len(id), config.MaxJobNameLen))
	}
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
// caught up (an empty delta in delta mode); a resync in progress, and the
// empty page that ends it, return done=false. On a transport error the
// cursor and replica are untouched — the next Pump retries the identical
// window — and the client enters degraded mode: the replica keeps
// serving its last index while StaleFor grows monotonically until a poll
// succeeds again.
func (c *FeedClient) Pump() (done bool, err error) {
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
		c.stats.Resumes++
	}
	c.lastOK = c.clock.Now()
	return done, nil
}

func (c *FeedClient) pump() (done bool, err error) {
	req := wire.FeedRequest{
		Subscriber:  c.id,
		Incarnation: c.inc,
		Cursor:      c.cursor,
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

	kind, body, rest, err := wire.DecodeFrame(frame)
	if err != nil {
		return false, err
	}
	if len(rest) != 0 {
		return false, fmt.Errorf("taskservice: feed reply carries %d trailing bytes", len(rest))
	}
	if kind != wire.FrameDelta {
		return false, fmt.Errorf("taskservice: unexpected feed frame kind 0x%02x", kind)
	}
	return c.applyDelta(body)
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

// beginResync adopts the server's fresh cursor and enters walk mode.
// Adopting the cursor BEFORE the walk is what makes one redirect cost
// one walk: a Restore-burned cursor is replaced by a live one, so the
// post-walk delta poll succeeds instead of redirecting again.
func (c *FeedClient) beginResync(next uint64) {
	c.stats.Resyncs++
	c.resync = true
	c.resumeAfter = ""
	c.cursor = next
	c.seen = make(map[string]struct{}, c.rep.size())
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

// applyDelta applies one reply: a redirect begins a walk, and entries
// apply alike in both modes. In walk mode each name is also recorded as
// seen and as the page to resume after, and the first empty page ends
// the walk. A new server incarnation is adopted from a redirect, or from
// a fresh client's first frame.
func (c *FeedClient) applyDelta(body []byte) (done bool, err error) {
	delta, err := wire.DecodeDelta(body)
	if err != nil {
		return false, err
	}
	adopted := delta.Incarnation != c.inc
	if adopted && c.inc != 0 && !delta.Redirect {
		return false, fmt.Errorf("taskservice: delta from server incarnation %#x, cursor from %#x", delta.Incarnation, c.inc)
	}
	if adopted {
		c.inc = delta.Incarnation
		c.rep.forgetServerRevs()
	}
	if delta.Redirect {
		if c.resync && !adopted {
			return false, fmt.Errorf("taskservice: redirect mid-walk")
		}
		c.beginResync(delta.Next)
		return false, nil
	}
	for i := 0; i < delta.Count; i++ {
		ent, err := delta.Entry()
		if err != nil {
			return false, err
		}
		if err := c.applyEntry(ent); err != nil {
			return false, err
		}
		if c.resync {
			name := string(ent.Name)
			c.seen[name] = struct{}{}
			c.resumeAfter = name
		}
	}
	c.cursor = delta.Next
	if delta.Count == 0 && c.resync {
		c.finishResync()
		return false, nil
	}
	return delta.Count == 0, nil
}

// applyEntry applies one commit or drop to the replica.
func (c *FeedClient) applyEntry(ent wire.DeltaEntry) error {
	if ent.Drop {
		c.rep.drop(ent.Name)
		c.stats.Applied++
		return nil
	}
	if c.rep.holds(ent.Name, ent.Rev) {
		c.stats.Skipped++
		return nil
	}
	cfg, err := decodeEntry(ent.Doc)
	if err != nil {
		return fmt.Errorf("taskservice: delta doc %q: %w", ent.Name, err)
	}
	c.rep.commit(ent.Name, ent.Rev, cfg)
	c.stats.Applied++
	return nil
}

// decodeEntry decodes an entry's document, a view of a frame buffer the
// next poll reuses, into a config that owns its strings: two
// allocations, the config and one for all of its strings. A document
// that is no JobConfig is a nil config, as on the primary, not an error.
func decodeEntry(doc []byte) (*config.JobConfig, error) {
	cfg, err := wire.DecodeJobConfigBlob(doc)
	if errors.Is(err, wire.ErrMalformed) {
		return nil, err
	}
	if cfg != nil {
		cfg.OwnStrings()
	}
	return cfg, nil
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
	name   string            // the row's key, shared by the touched set
	srvRev int64             // the server's revision: the feed's dedup key
	rev    int64             // local revision, stamped on every apply: the Service's group-cache key
	cfg    *config.JobConfig // nil: the document is not a JobConfig
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

// forgetServerRevs clears every row's server revision (revisions start
// at 1), so no entry of a new server incarnation is taken as held.
func (r *replica) forgetServerRevs() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, row := range r.rows {
		row.srvRev = 0
		r.rows[name] = row
	}
}

// size returns the number of rows. Writer only.
func (r *replica) size() int { return len(r.rows) }

// commit installs a job's running entry under a fresh local revision.
// name may be a view into the frame buffer; the row keeps a copy.
func (r *replica) commit(name []byte, srvRev int64, cfg *config.JobConfig) {
	r.mu.Lock()
	defer r.mu.Unlock()
	row, ok := r.rows[string(name)]
	if !ok {
		row.name = string(name)
	}
	r.rev++
	row.srvRev, row.rev, row.cfg = srvRev, r.rev, cfg
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

// RunningEntry returns a job's replicated config and its local revision.
func (r *replica) RunningEntry(name string) (*config.JobConfig, int64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	row, ok := r.rows[name]
	return row.cfg, row.rev, ok
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
