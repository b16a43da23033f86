// Running-entry change journal: the store-side half of change-driven
// snapshot refresh.
//
// Every CommitRunning that changes an entry's content and every
// DropRunning appends one entry to a bounded ring; a commit that moves
// only the realized version appends none, since no consumer reads it.
// A consumer (the Task Service) holds a cursor — the sequence number of
// the last entry it processed — and asks ChangesSince(cursor)
// for everything that landed after it, so a snapshot regeneration visits
// only the jobs whose running entry actually moved, never the fleet.
// This is the same do-work-proportional-to-change discipline the State
// Syncer's dirty set applies to the write path (PR 4), pushed onto the
// read path.
//
// The ring is bounded (journalCap entries), so the journal can never
// grow with fleet size or consumer lag. A consumer that falls more than
// journalCap entries behind — or that predates a Restore, which replaces
// the store's contents wholesale — gets a full-resync sentinel
// (ok=false) and must rebuild from a fleet walk; the returned cursor
// re-synchronizes it with the journal from that point on.
//
// Ordering contract: an entry is appended only AFTER its store write is
// visible. A consumer that reads an entry and then reads the store is
// therefore guaranteed to observe that write (or a newer one); a write
// whose entry has not yet been appended will appear in a later
// ChangesSince batch. Sequence numbers are assigned under the journal
// mutex at append time, so the batch a consumer receives is gap-free:
// nothing with a smaller sequence number can land after the batch was
// read.
package jobstore

import "sync"

// Change is one running-entry mutation: a commit (create or rewrite) or
// a drop. Seq is the journal sequence number, strictly increasing in the
// order entries were appended.
type Change struct {
	Seq  uint64
	Name string
	Drop bool
}

// JournalCap is the change journal's ring capacity. A consumer whose
// cursor falls more than JournalCap entries behind the newest one must
// full-resync. 4096 comfortably covers the churn of a 90-second snapshot
// TTL at production commit rates while bounding the ring at ~128 KB.
const JournalCap = 4096

// journal is the bounded running-entry change ring. Entry seq lives at
// buf[seq&(JournalCap-1)]; entries with seq in (next-JournalCap, next]
// are retained.
type journal struct {
	mu    sync.Mutex
	buf   []Change // allocated on first append; len JournalCap
	next  uint64   // seq of the newest entry; 0 = nothing ever appended
	reset uint64   // cursors below this predate a Restore and must resync
}

// append records one mutation. Callers must have made the corresponding
// store write visible first (see the ordering contract above).
func (j *journal) append(name string, drop bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.buf == nil {
		j.buf = make([]Change, JournalCap)
	}
	j.next++
	j.buf[j.next&(JournalCap-1)] = Change{Seq: j.next, Name: name, Drop: drop}
}

// invalidateAll marks every outstanding cursor stale (Restore replaced
// the store's contents, so incremental catch-up is meaningless). One
// sequence number is burned so that cursors handed out after this call
// (== next) stay valid while every earlier cursor (< next) resyncs; the
// burned slot is unreachable because reading it would require a cursor
// below reset.
func (j *journal) invalidateAll() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.next++
	j.reset = j.next
}

// ChangesSince returns every journal entry with Seq > cursor, oldest
// first, appended to buf (pass a reused buffer's [:0] reslice for an
// allocation-free steady state). next is the cursor to hold for the
// following call.
//
// ok=false means the cursor cannot be caught up incrementally — it fell
// more than JournalCap entries behind, it claims a position the journal
// never issued (ahead of the head), or the store was Restored since it
// was issued. The caller must rebuild from a full fleet walk
// (RunningNames + RunningEntry) and adopt the returned cursor; the
// walk must happen AFTER this call, so any commit the walk misses has a
// larger sequence number and is replayed by the following ChangesSince.
func (s *Store) ChangesSince(cursor uint64, buf []Change) (changes []Change, next uint64, ok bool) {
	return s.ChangesSinceLimit(cursor, 0, buf)
}

// ChangesSinceLimit is ChangesSince with a batch bound: at most max
// entries are returned (max <= 0 means unbounded), and next is the
// sequence number of the LAST entry delivered, so a paginating consumer
// resumes exactly where the batch ended with nothing skipped. This is the
// spec feed's page primitive: a remote subscriber drains a large churn
// window in bounded frames, and a fault-injected "partial batch" is just
// a smaller max — never a torn suffix.
func (s *Store) ChangesSinceLimit(cursor uint64, max int, buf []Change) (changes []Change, next uint64, ok bool) {
	j := &s.journal
	j.mu.Lock()
	defer j.mu.Unlock()
	latest := j.next
	if cursor > latest || cursor < j.reset || latest-cursor > JournalCap {
		return buf[:0], latest, false
	}
	hi := latest
	if max > 0 && uint64(max) < hi-cursor {
		hi = cursor + uint64(max)
	}
	out := buf
	for seq := cursor + 1; seq <= hi; seq++ {
		out = append(out, j.buf[seq&(JournalCap-1)])
	}
	return out, hi, true
}

// JournalHead returns the journal's newest sequence number: the cursor a
// fully caught-up consumer holds. The spec feed's frame cache keys its
// validity on this value — any commit or drop moves it.
func (s *Store) JournalHead() uint64 {
	j := &s.journal
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}
